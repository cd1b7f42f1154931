"""Entropy-Constrained Vector Quantization (ECVQ).

The paper's Section 3.3 remarks that the open problem of choosing a
per-partition ``k`` can be addressed with ECVQ (Chou, Lookabaugh & Gray
1989): start from a *maximum* ``k``, penalise assignment to rare clusters
by their code length, and let under-used centroids starve and be
discarded — finding an effective ``k`` on the fly.

Assignment cost for point ``x`` and centroid ``c_j`` with usage
probability ``p_j``:

    cost(x, j) = ||x - c_j||^2 + lam * (-log2 p_j)

Centroids whose usage probability falls below ``starvation_threshold`` are
dropped between iterations.  With ``lam = 0`` the algorithm reduces to
plain Lloyd k-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import WeightedCentroidSet, as_points, as_weights
from repro.core.quality import pairwise_sq_distances
from repro.core.seeding import distinct_random_seeds

__all__ = ["EcvqResult", "ecvq"]

_LOG2_FLOOR = 1e-12  # probability floor so -log2 stays finite


@dataclass(frozen=True)
class EcvqResult:
    """Outcome of an ECVQ run.

    Attributes:
        summary: surviving weighted centroids (effective codebook).
        effective_k: number of surviving centroids.
        mse: weighted MSE of the final assignment (distortion only, without
            the entropy penalty).
        rate_bits: empirical entropy of the code usage in bits/point.
        lagrangian: final distortion + ``lam`` * rate objective value.
        iterations: iterations executed.
    """

    summary: WeightedCentroidSet
    effective_k: int
    mse: float
    rate_bits: float
    lagrangian: float
    iterations: int


def ecvq(
    points: np.ndarray,
    max_k: int,
    lam: float,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
    starvation_threshold: float = 1e-4,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> EcvqResult:
    """Run entropy-constrained VQ from ``max_k`` random seeds.

    Args:
        points: ``(n, d)`` data.
        max_k: maximum codebook size; the result's ``effective_k`` may be
            smaller (that is the point of the method).
        lam: rate/distortion trade-off; larger values prune harder.
        rng: generator for seed selection.
        weights: optional point weights.
        starvation_threshold: minimum usage probability for a centroid to
            survive to the next iteration.
        max_iter: iteration cap.
        tol: stop when the Lagrangian objective improves by at most this.

    Returns:
        An :class:`EcvqResult`.
    """
    pts = as_points(points)
    wts = as_weights(weights, pts.shape[0])
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    total_mass = float(wts.sum())

    centroids = distinct_random_seeds(pts, max_k, rng)
    probs = np.full(centroids.shape[0], 1.0 / centroids.shape[0])
    prev_objective = np.inf
    iterations = 0
    assignments = np.zeros(pts.shape[0], dtype=np.intp)

    for iterations in range(1, max_iter + 1):
        penalty = -np.log2(np.maximum(probs, _LOG2_FLOOR))
        cost = pairwise_sq_distances(pts, centroids) + lam * penalty[None, :]
        assignments = np.argmin(cost, axis=1)

        mass = np.bincount(assignments, weights=wts, minlength=centroids.shape[0])
        probs = mass / total_mass

        survivors = probs > starvation_threshold
        if not survivors.any():
            # Keep the single most-used centroid rather than emptying the book.
            survivors = probs == probs.max()
        if not survivors.all():
            centroids = centroids[survivors]
            probs = probs[survivors]
            probs = probs / probs.sum()
            continue  # re-assign against the pruned codebook first

        # Centroid update: weighted means of surviving clusters.
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, pts * wts[:, None])
        occupied = mass > 0
        centroids[occupied] = sums[occupied] / mass[occupied, None]

        chosen_cost = cost[np.arange(pts.shape[0]), assignments]
        objective = float(np.multiply(wts, chosen_cost).sum()) / total_mass
        if 0.0 <= prev_objective - objective <= tol:
            break
        prev_objective = objective

    # Final bookkeeping against the surviving codebook.
    penalty = -np.log2(np.maximum(probs, _LOG2_FLOOR))
    cost = pairwise_sq_distances(pts, centroids) + lam * penalty[None, :]
    assignments = np.argmin(cost, axis=1)
    mass = np.bincount(assignments, weights=wts, minlength=centroids.shape[0])
    d2 = pairwise_sq_distances(pts, centroids)
    sq = d2[np.arange(pts.shape[0]), assignments]
    distortion = float(np.multiply(wts, sq).sum()) / total_mass
    used = mass > 0
    use_probs = mass[used] / total_mass
    rate = float(-(use_probs * np.log2(use_probs)).sum()) if used.any() else 0.0

    return EcvqResult(
        summary=WeightedCentroidSet(
            centroids=centroids[used], weights=mass[used], source="ecvq"
        ),
        effective_k=int(used.sum()),
        mse=distortion,
        rate_bits=rate,
        lagrangian=distortion + lam * rate,
        iterations=iterations,
    )
