"""Data model for cluster representations.

The partial/merge k-means pipeline passes *weighted centroid sets* between
its stages: the partial step summarises a data partition as ``k`` centroids,
each carrying the number of points assigned to it, and the merge step
clusters those summaries as weighted points.  This module defines the
immutable containers for those intermediate and final representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import KernelCounters

__all__ = [
    "WeightedCentroidSet",
    "KMeansResult",
    "ClusterModel",
    "as_points",
    "as_weights",
]


def as_points(points: np.ndarray | list) -> np.ndarray:
    """Validate and coerce ``points`` to a C-contiguous float64 ``(n, d)`` array.

    Raises ``ValueError`` for empty input, wrong rank, or non-finite values.
    """
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"points must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("points must contain at least one row")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite (no NaN or inf)")
    return arr


def as_weights(weights: np.ndarray | list | None, n: int) -> np.ndarray:
    """Validate ``weights`` against ``n`` points; ``None`` means unit weights.

    Weights must be non-negative, finite, and carry positive total mass.
    """
    if weights is None:
        return np.ones(n, dtype=np.float64)
    arr = np.ascontiguousarray(weights, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite")
    if (arr < 0).any():
        raise ValueError("weights must be non-negative")
    if arr.sum() <= 0.0:
        raise ValueError("weights must have positive total mass")
    return arr


@dataclass(frozen=True)
class WeightedCentroidSet:
    """A set of centroids with point-count weights.

    This is the unit of data exchanged between the partial and merge
    operators: ``centroids[i]`` represents ``weights[i]`` original points.

    Attributes:
        centroids: ``(k, d)`` float64 array of centroid coordinates.
        weights: ``(k,)`` float64 array; ``weights[i]`` is the number of
            points (or weight mass) summarised by ``centroids[i]``.
        source: optional label identifying the producing partition.
    """

    centroids: np.ndarray
    weights: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        cents = as_points(self.centroids)
        wts = as_weights(self.weights, cents.shape[0])
        object.__setattr__(self, "centroids", cents)
        object.__setattr__(self, "weights", wts)

    @property
    def k(self) -> int:
        """Number of centroids in the set."""
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the centroids."""
        return self.centroids.shape[1]

    @property
    def total_weight(self) -> float:
        """Total weight mass (number of original points summarised)."""
        return float(self.weights.sum())

    def mean(self) -> np.ndarray:
        """Weight-mass centre of the set (equals the data mean of the
        summarised points when centroids are exact cluster means)."""
        return np.average(self.centroids, axis=0, weights=self.weights)

    @staticmethod
    def concatenate(
        sets: "list[WeightedCentroidSet]", source: str = "merged"
    ) -> "WeightedCentroidSet":
        """Pool several centroid sets into one (the merge operator's input).

        All sets must share the same dimensionality.
        """
        if not sets:
            raise ValueError("cannot concatenate an empty list of centroid sets")
        dims = {s.dim for s in sets}
        if len(dims) != 1:
            raise ValueError(f"centroid sets have mixed dimensionality: {sorted(dims)}")
        return WeightedCentroidSet(
            centroids=np.vstack([s.centroids for s in sets]),
            weights=np.concatenate([s.weights for s in sets]),
            source=source,
        )


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one Lloyd k-means run.

    Attributes:
        centroids: ``(k, d)`` final centroid coordinates.
        assignments: ``(n,)`` int array mapping each input point to a
            centroid; ``None`` on a run that a partial pool worker ran as
            part of a restart batch, which ships back everything but the
            per-point assignments.
        cluster_weights: ``(k,)`` weight mass assigned to each centroid.
        sse: weighted sum of squared distances of points to their centroid.
        mse: ``sse`` divided by the total weight mass (the paper's MSE).
        iterations: number of Lloyd iterations executed.
        converged: whether the paper's MSE-delta rule was met (as opposed to
            hitting the iteration cap).
        kernel: name of the assignment backend that produced the result
            (all backends are bit-identical; this is provenance only).
        counters: the kernel's instrumentation (distance evaluations
            computed/skipped, bound-check hits, assignment wall time).
    """

    centroids: np.ndarray
    assignments: np.ndarray | None
    cluster_weights: np.ndarray
    sse: float
    mse: float
    iterations: int
    converged: bool
    kernel: str = "dense"
    counters: KernelCounters | None = None

    @property
    def k(self) -> int:
        """Number of centroids."""
        return self.centroids.shape[0]

    def to_weighted_set(self, source: str = "") -> WeightedCentroidSet:
        """Export as a weighted centroid set, dropping empty clusters.

        The partial operator uses this to produce its output stream item.
        """
        occupied = self.cluster_weights > 0
        return WeightedCentroidSet(
            centroids=self.centroids[occupied],
            weights=self.cluster_weights[occupied],
            source=source,
        )


@dataclass(frozen=True)
class ClusterModel:
    """Final clustering of one grid cell, plus provenance.

    Produced by both the serial baseline and the partial/merge pipeline so
    results are directly comparable.

    Attributes:
        centroids: ``(k, d)`` final centroids.
        weights: ``(k,)`` point mass represented by each centroid.
        mse: clustering error against the data it was evaluated on.
        method: human-readable name of the producing algorithm.
        partitions: number of partitions used (1 for serial).
        restarts: number of random-seed restarts run per k-means.
        partial_seconds: wall-clock spent in partial k-means (0 for serial).
        merge_seconds: wall-clock spent in merge k-means (0 for serial).
        total_seconds: end-to-end wall-clock for the clustering.
        extra: free-form metadata (iteration counts, clone counts, ...).
    """

    centroids: np.ndarray
    weights: np.ndarray
    mse: float
    method: str
    partitions: int = 1
    restarts: int = 1
    partial_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        cents = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if cents.ndim == 2 and cents.shape[0] == 0:
            # An empty model: a cell that contributed no points (the
            # stream engine records such cells instead of dropping them).
            # The non-empty validators below would reject it.
            object.__setattr__(self, "centroids", cents)
            object.__setattr__(self, "weights", np.zeros(0, dtype=np.float64))
            return
        cents = as_points(self.centroids)
        wts = as_weights(self.weights, cents.shape[0])
        object.__setattr__(self, "centroids", cents)
        object.__setattr__(self, "weights", wts)

    @staticmethod
    def empty(
        dim: int, method: str = "empty", extra: dict | None = None
    ) -> "ClusterModel":
        """A model with zero centroids, standing in for a zero-point cell."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return ClusterModel(
            centroids=np.zeros((0, dim), dtype=np.float64),
            weights=np.zeros(0, dtype=np.float64),
            mse=0.0,
            method=method,
            partitions=0,
            extra=dict(extra or {}),
        )

    @property
    def k(self) -> int:
        """Number of centroids in the model."""
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the model."""
        return self.centroids.shape[1]

    def to_weighted_set(self) -> WeightedCentroidSet:
        """View the model as a weighted centroid set."""
        return WeightedCentroidSet(self.centroids, self.weights, source=self.method)
