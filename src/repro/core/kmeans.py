"""Weighted Lloyd k-means — the computational kernel shared by every stage.

The serial baseline, the partial operator, and the merge operator all run
the same iteration; they differ only in their inputs (raw points vs weighted
centroids) and seeding.  Implementing one weighted kernel keeps the paper's
"the code for the serial and the partial k-means implementation are
identical" property.

Algorithm (paper Section 2):

1. take ``k`` initial seeds,
2. assign every point to its nearest centroid (squared Euclidean),
3. recompute each centroid as the weighted mean of its cluster,
4. repeat until ``MSE(n-1) - MSE(n) <= 1e-9``
   (:func:`repro.core.convergence.mse_converged`).

The assignment step (2) is delegated to a pluggable backend from
:mod:`repro.core.kernels`, selected via the ``kernel=`` argument or the
``REPRO_KMEANS_KERNEL`` environment variable (``docs/kernels.md`` lists
them); with neither, the run's size picks the faster one.  The two
backends, ``dense`` and ``elkan``, are bit-identical in every output, so
the choice is purely a performance knob.

Empty clusters — which the paper does not discuss but any fixed-k
implementation must handle — are repaired by re-seeding the empty centroid
to the in-data point currently farthest from its assigned centroid, a
standard Lloyd repair that strictly reduces SSE potential.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import mse_converged
from repro.core.kernels import (
    LloydKernel,
    _pair_sq_distances,
    resolve_kernel,
)
from repro.core.model import KMeansResult, as_points, as_weights

__all__ = ["lloyd", "DEFAULT_MAX_ITER"]

#: Safety cap on Lloyd iterations; the paper relies on the MSE-delta
#: rule alone, which in floating point can stall on plateaus.
DEFAULT_MAX_ITER = 300


def _repair_empty_clusters(
    centroids: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    assignments: np.ndarray,
    sq_dists: np.ndarray,
    empty: np.ndarray,
) -> None:
    """Re-seed empty centroids to the worst-represented points (in place).

    Each empty centroid takes the positively-weighted point with the largest
    current squared distance.  After every reseed the penalty array is
    lowered to account for the just-placed centroid
    (``penalty = min(penalty, d²(points, donor))``): a point sitting next to
    a fresh donor is no longer badly represented, so two empty centroids can
    no longer land on near-duplicate donors when the zeroed donor happened
    to be the unique maximum.
    """
    penalty = sq_dists * (weights > 0)
    for centroid_index in empty:
        donor = int(np.argmax(penalty))
        if penalty[donor] <= 0.0:
            # Degenerate data (all points coincide with centroids); leave the
            # empty centroid where it is.
            continue
        centroids[centroid_index] = points[donor]
        assignments[donor] = centroid_index
        # The reseeded centroid sits exactly on the donor point, so every
        # point's distance to its nearest centroid is now at most its
        # distance to the donor.
        np.minimum(
            penalty, _pair_sq_distances(points, points[donor]), out=penalty
        )
        penalty[donor] = 0.0


def lloyd(
    points: np.ndarray,
    seeds: np.ndarray,
    weights: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: "str | LloydKernel | None" = None,
) -> KMeansResult:
    """Run weighted Lloyd k-means from the given seeds.

    Iteration stops at the paper's ``MSE(n-1) - MSE(n) <= 1e-9`` or at
    ``max_iter``, whichever comes first.

    Args:
        points: ``(n, d)`` data (raw points, or centroids in the merge step).
        seeds: ``(k, d)`` initial centroids; ``k <= n`` is required.
        weights: optional ``(n,)`` non-negative point weights (the merge
            step passes the partial steps' point counts; ``None`` means
            unit weights and reproduces the classic unweighted algorithm).
        max_iter: hard iteration cap.
        kernel: assignment backend — a name from
            :func:`~repro.core.kernels.available_kernels`, a
            :class:`~repro.core.kernels.LloydKernel` instance, or ``None``
            to consult ``REPRO_KMEANS_KERNEL`` and then pick by size:
            ``elkan`` when ``n·k`` reaches
            ``repro.core.kernels._BOUNDS_MIN_PAIRS``, ``dense`` below.
            Every backend produces bit-identical results.

    Returns:
        A :class:`~repro.core.model.KMeansResult`.  ``result.mse`` is the
        weighted mean square error at the final assignment;
        ``result.counters`` carries the kernel's instrumentation.
    """
    pts = as_points(points)
    cents = as_points(seeds).copy()
    n, dim = pts.shape
    k = cents.shape[0]
    if cents.shape[1] != dim:
        raise ValueError(
            f"seed dimensionality {cents.shape[1]} does not match data {dim}"
        )
    if k > n:
        raise ValueError(f"cannot fit k={k} clusters to n={n} points")
    wts = as_weights(weights, n)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    # Hoisted out of the loop: the weighted points never change.  Unit
    # weights leave every coordinate's bits as they are (x·1.0 == x), so
    # the points serve as their own weighted copy.
    weighted_pts = pts if weights is None else pts * wts[:, None]

    backend = resolve_kernel(kernel, pairs=n * k)
    backend.start(pts)
    return _iterate(backend, pts, wts, weighted_pts, cents, max_iter)


def _iterate(
    backend: LloydKernel,
    pts: np.ndarray,
    wts: np.ndarray,
    weighted_pts: np.ndarray,
    cents: np.ndarray,
    max_iter: int,
) -> KMeansResult:
    """The Lloyd loop of :func:`lloyd` over a started kernel."""
    k = cents.shape[0]
    total_mass = float(wts.sum())

    prev_sse = np.inf
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        assignments, sq_dists = backend.assign(cents)

        # Delegated: bounds kernels recount only clusters whose
        # membership changed (bit-identical subset bincount).
        cluster_mass = backend.cluster_mass(wts, assignments, k)
        empty = np.flatnonzero(cluster_mass == 0)
        if empty.size:
            _repair_empty_clusters(cents, pts, wts, assignments, sq_dists, empty)
            # A centroid teleported; cached kernel bounds are void.
            backend.invalidate()
            assignments, sq_dists = backend.assign(cents)
            cluster_mass = backend.cluster_mass(wts, assignments, k)

        # Weighted centroid recalculation: mu_j = sum(w_i x_i) / sum(w_i).
        # Delegated to the kernel so bounds kernels can reuse cached sums
        # for untouched clusters (bit-exact).
        sums = backend.aggregate(weighted_pts, assignments, k)
        occupied = cluster_mass > 0
        new_cents = cents.copy()
        new_cents[occupied] = sums[occupied] / cluster_mass[occupied, None]

        backend.notify_update(cents, new_cents)
        cents = new_cents

        # numpy's pairwise sum, not a BLAS dot: its bits do not depend on
        # the BLAS thread count.
        cur_sse = float(np.multiply(wts, sq_dists).sum())
        cur_mse = cur_sse / total_mass
        if mse_converged(prev_sse / total_mass, cur_mse):
            converged = True
            break
        prev_sse = cur_sse

    # Final assignment against the last recalculated centroids so that the
    # reported MSE matches the returned model exactly.
    assignments, sq_dists = backend.assign(cents)
    # Copy: the hook may hand back a kernel-owned cache, and the result
    # must not alias state a reused kernel instance would mutate.
    cluster_mass = backend.cluster_mass(wts, assignments, k).copy()
    final_sse = float(np.multiply(wts, sq_dists).sum())

    return KMeansResult(
        centroids=cents,
        assignments=assignments,
        cluster_weights=cluster_mass,
        sse=final_sse,
        mse=final_sse / total_mass,
        iterations=iterations,
        converged=converged,
        kernel=backend.name,
        counters=backend.counters,
    )
