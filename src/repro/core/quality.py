"""Clustering-quality metrics.

The paper measures quality as the (minimum over restarts) mean square error:
the weighted average squared Euclidean distance from each point to its
nearest centroid.  For the partial/merge pipeline, each "point" seen by the
merge step is itself a weighted centroid, so every metric here takes an
optional weight vector.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from repro.core.kernels import _assign_rows
from repro.core.model import as_points, as_weights

__all__ = [
    "pairwise_sq_distances",
    "assign_to_nearest",
    "sse",
    "mse",
    "weighted_mse_against_data",
    "quantization_error_profile",
    "cluster_sizes",
    "davies_bouldin",
]


def _as_cdist_operand(array: np.ndarray) -> np.ndarray:
    """Coerce an operand to C-contiguous float64 (no copy when already so).

    ``cdist`` silently upcasts float32 and copies non-contiguous inputs
    internally; coercing explicitly keeps the dtype/layout contract the
    same across every kernel (results for float32 or strided views are
    bit-identical to coercing first, by construction rather than by
    implementation accident).
    """
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


def pairwise_sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_points, n_centroids)``.

    Inputs of any float dtype or memory layout are accepted; both are
    coerced to C-contiguous float64 before the distance computation.
    """
    return cdist(
        _as_cdist_operand(points),
        _as_cdist_operand(centroids),
        metric="sqeuclidean",
    )


def assign_to_nearest(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest centroid.

    Returns ``(assignments, sq_dists)`` where ``assignments[i]`` indexes the
    nearest centroid of ``points[i]`` and ``sq_dists[i]`` is the squared
    distance to it.  This is the ``dense`` kernel's tiled pass: bounds
    kernels have no advantage on a one-shot assignment.  ``points`` and
    ``centroids`` may have any float dtype or memory layout.
    """
    return _assign_rows(_as_cdist_operand(points), _as_cdist_operand(centroids))


def sse(
    points: np.ndarray,
    centroids: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Weighted sum of squared distances to nearest centroids.

    This is the paper's error function ``E`` (serial) and ``E_pm`` (weighted,
    partial/merge) depending on whether ``weights`` is supplied.  The sum
    is numpy's pairwise sum, not a BLAS dot, so its bits do not depend on
    the BLAS thread count.
    """
    pts = as_points(points)
    cents = as_points(centroids)
    wts = as_weights(weights, pts.shape[0])
    __, sq = assign_to_nearest(pts, cents)
    return float(np.multiply(wts, sq).sum())


def mse(
    points: np.ndarray,
    centroids: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Mean square error: SSE normalised by total weight mass."""
    pts = as_points(points)
    wts = as_weights(weights, pts.shape[0])
    return sse(pts, centroids, wts) / float(wts.sum())


def weighted_mse_against_data(
    data: np.ndarray, centroids: np.ndarray
) -> float:
    """MSE of a centroid model evaluated on raw (unit-weight) data.

    This is the fair comparison metric used across serial and partial/merge
    results in the experiment harness: regardless of how the centroids were
    obtained, score them against the original points of the grid cell.
    """
    return mse(data, centroids)


def quantization_error_profile(
    points: np.ndarray, centroids: np.ndarray
) -> dict[str, float]:
    """Distributional summary of per-point quantization error.

    Returns mean, median, p95 and max of the squared distance to the nearest
    centroid — useful when comparing compression fidelity of two models with
    identical MSE.
    """
    pts = as_points(points)
    __, sq = assign_to_nearest(pts, as_points(centroids))
    return {
        "mean": float(sq.mean()),
        "median": float(np.median(sq)),
        "p95": float(np.percentile(sq, 95)),
        "max": float(sq.max()),
    }


def cluster_sizes(
    points: np.ndarray,
    centroids: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weight mass assigned to each centroid, shape ``(k,)``."""
    pts = as_points(points)
    cents = as_points(centroids)
    wts = as_weights(weights, pts.shape[0])
    assignments, __ = assign_to_nearest(pts, cents)
    return np.bincount(assignments, weights=wts, minlength=cents.shape[0])


def davies_bouldin(points: np.ndarray, centroids: np.ndarray) -> float:
    """Davies-Bouldin index (lower is better) over occupied clusters.

    A secondary quality metric used by the ablation benchmarks to confirm
    that MSE improvements are not an artifact of the error definition.
    """
    pts = as_points(points)
    cents = as_points(centroids)
    assignments, __ = assign_to_nearest(pts, cents)
    occupied = np.unique(assignments)
    if occupied.size < 2:
        return 0.0
    used = cents[occupied]
    scatter = np.empty(occupied.size)
    for row, label in enumerate(occupied):
        members = pts[assignments == label]
        scatter[row] = float(
            np.sqrt(((members - used[row]) ** 2).sum(axis=1)).mean()
        )
    sep = cdist(used, used)
    ratios = np.zeros_like(sep)
    mask = sep > 0
    pair_scatter = scatter[:, None] + scatter[None, :]
    ratios[mask] = pair_scatter[mask] / sep[mask]
    np.fill_diagonal(ratios, -np.inf)
    return float(ratios.max(axis=1).mean())
