"""The three parallelization methods of the paper's Figure 2.

The paper positions partial/merge against three conventional ways of
parallelizing k-means:

* **Method A** — one grid cell per processor: embarrassingly parallel
  across cells, but each cell must still fit in one machine's memory.
* **Method B** — one restart (seed set) per processor for a single cell:
  parallelises the ``R`` runs, same memory limitation.
* **Method C** — distance-based data partitioning with mean broadcast:
  the cell's points are sorted to slaves by nearest initial centroid; each
  iteration every slave recomputes means for its points, broadcasts them,
  and migrates points whose nearest centroid lives on another slave.
  Memory is divided, but message passing overhead appears.

Methods A and B run on real thread pools.  Method C is executed as a
faithful single-host simulation that tracks the messages a shared-nothing
deployment would exchange (broadcasts and point migrations), because the
paper's criticism of Method C is precisely that overhead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import mse_converged
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.model import ClusterModel, as_points
from repro.core.quality import pairwise_sq_distances
from repro.core.seeding import random_seeds
from repro.baselines.serial import SerialKMeans

__all__ = [
    "method_a_cells_in_parallel",
    "method_b_restarts_in_parallel",
    "MethodCStats",
    "method_c_distance_partitioned",
]


def method_a_cells_in_parallel(
    cells: dict[str, np.ndarray],
    k: int,
    restarts: int = 10,
    max_workers: int = 4,
    seed: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, ClusterModel]:
    """Method A: assign each grid cell to a worker, serial k-means inside.

    Returns:
        Mapping from cell id to its serial model.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    root = np.random.default_rng(seed)
    jobs = [
        (cell_id, points, int(child))
        for (cell_id, points), child in zip(
            cells.items(), root.integers(0, 2**63 - 1, size=len(cells))
        )
    ]

    def run(job: tuple[str, np.ndarray, int]) -> tuple[str, ClusterModel]:
        cell_id, points, child_seed = job
        model = SerialKMeans(
            k,
            restarts=restarts,
            max_iter=max_iter,
            seed=child_seed,
        ).fit(points)
        return cell_id, model

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return dict(pool.map(run, jobs))


def method_b_restarts_in_parallel(
    points: np.ndarray,
    k: int,
    restarts: int = 10,
    max_workers: int = 4,
    seed: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ClusterModel:
    """Method B: one restart per worker for a single cell; keep min MSE."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    pts = as_points(points)
    root = np.random.default_rng(seed)
    child_seeds = [int(s) for s in root.integers(0, 2**63 - 1, size=restarts)]
    start = time.perf_counter()

    def run(child_seed: int):
        rng = np.random.default_rng(child_seed)
        seeds = random_seeds(pts, k, rng)
        return lloyd(pts, seeds, max_iter=max_iter)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        results = list(pool.map(run, child_seeds))
    elapsed = time.perf_counter() - start

    best = min(results, key=lambda r: r.mse)
    occupied = best.cluster_weights > 0
    return ClusterModel(
        centroids=best.centroids[occupied],
        weights=best.cluster_weights[occupied],
        mse=best.mse,
        method="method-B",
        restarts=restarts,
        total_seconds=elapsed,
        extra={"restart_mses": [r.mse for r in results]},
    )


@dataclass
class MethodCStats:
    """Message accounting for the simulated Method C deployment.

    Attributes:
        iterations: Lloyd iterations executed.
        broadcasts: mean-vector broadcast messages
            (``slaves * (slaves - 1)`` per iteration).
        migrated_points: points shipped between slaves across the run.
        per_iteration_migrations: migration counts per iteration.
    """

    iterations: int = 0
    broadcasts: int = 0
    migrated_points: int = 0
    per_iteration_migrations: list[int] = field(default_factory=list)


def method_c_distance_partitioned(
    points: np.ndarray,
    k: int,
    n_slaves: int = 4,
    seed: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ClusterModel, MethodCStats]:
    """Method C: distance-partitioned k-means with migration accounting.

    The simulation is numerically identical to Lloyd k-means (so its model
    quality matches the serial algorithm with the same seeds); what it adds
    is the distributed-execution ledger: slaves own contiguous centroid
    ranges, means are broadcast each iteration, and a point whose nearest
    centroid moves to another slave's range counts as one migrated point.

    Returns:
        ``(model, stats)``.
    """
    pts = as_points(points)
    if n_slaves < 1:
        raise ValueError(f"n_slaves must be >= 1, got {n_slaves}")
    if k < n_slaves:
        raise ValueError(f"need k >= n_slaves, got k={k}, slaves={n_slaves}")
    rng = np.random.default_rng(seed)
    centroids = random_seeds(pts, k, rng)
    k_eff = centroids.shape[0]

    # Slave ownership: centroid j lives on slave j % n_slaves.
    owner_of_centroid = np.arange(k_eff) % n_slaves

    stats = MethodCStats()
    prev_mse = np.inf
    prev_owner = None
    start = time.perf_counter()
    assignments = np.zeros(pts.shape[0], dtype=np.intp)

    for __ in range(max_iter):
        d2 = pairwise_sq_distances(pts, centroids)
        assignments = np.argmin(d2, axis=1)
        sq = d2[np.arange(pts.shape[0]), assignments]

        point_owner = owner_of_centroid[assignments]
        if prev_owner is not None:
            moved = int((point_owner != prev_owner).sum())
            stats.migrated_points += moved
            stats.per_iteration_migrations.append(moved)
        prev_owner = point_owner

        counts = np.bincount(assignments, minlength=k_eff)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, pts)
        occupied = counts > 0
        new_centroids = centroids.copy()
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        centroids = new_centroids

        stats.iterations += 1
        stats.broadcasts += n_slaves * (n_slaves - 1)

        cur_mse = float(sq.mean())
        if mse_converged(prev_mse, cur_mse):
            break
        prev_mse = cur_mse

    elapsed = time.perf_counter() - start
    d2 = pairwise_sq_distances(pts, centroids)
    assignments = np.argmin(d2, axis=1)
    sq = d2[np.arange(pts.shape[0]), assignments]
    counts = np.bincount(assignments, minlength=k_eff)
    occupied = counts > 0
    model = ClusterModel(
        centroids=centroids[occupied],
        weights=counts[occupied].astype(np.float64),
        mse=float(sq.mean()),
        method="method-C",
        total_seconds=elapsed,
        extra={"n_slaves": n_slaves},
    )
    return model, stats
