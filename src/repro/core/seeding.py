"""Seed-selection strategies for k-means initialization.

The paper uses two strategies:

* **uniform random** seeds drawn from the data points for the serial and
  partial steps (repeated ``R`` times, keeping the minimum-MSE run), and
* **largest-weight** seeds for the merge step — the ``k`` incoming weighted
  centroids with the greatest point mass, which "forces the algorithm to
  take into account which data points are likely to represent significant
  cluster centroids already".

Two modern strategies ride along: k-means++, which seeds the serial
whole-cell oracle and reduces k-means||'s candidates, and k-means||
(Bahmani et al.), the shard runtime's default.  Every D² distance they
compute is a ``cdist`` value, as in the Lloyd kernels.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import _assign_rows, _pair_sq_distances
from repro.core.model import as_points, as_weights

__all__ = [
    "random_seeds",
    "distinct_random_seeds",
    "largest_weight_seeds",
    "kmeans_plus_plus_seeds",
    "kmeans_parallel_seeds",
    "resolve_strategy",
]


def _effective_k(k: int, n: int) -> int:
    """Clamp the requested ``k`` to the number of available points.

    The paper fixes k=40 even for 250-point cells; with fewer points than
    seeds the convention here (and in the experiment harness) is to use
    every point as a seed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, n)


def random_seeds(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``k`` seeds uniformly from the data points, without replacement.

    This is the paper's initialization for the serial and partial steps.
    """
    pts = as_points(points)
    kk = _effective_k(k, pts.shape[0])
    idx = rng.choice(pts.shape[0], size=kk, replace=False)
    return pts[idx].copy()


def distinct_random_seeds(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Like :func:`random_seeds` but sample from *distinct* point values.

    Duplicated points in the data can otherwise yield coincident seeds,
    which guarantees empty clusters on the first iteration.  Falls back to
    plain random seeds when there are fewer distinct values than ``k``.
    """
    pts = as_points(points)
    distinct = np.unique(pts, axis=0)
    if distinct.shape[0] >= min(k, pts.shape[0]):
        kk = _effective_k(k, distinct.shape[0])
        idx = rng.choice(distinct.shape[0], size=kk, replace=False)
        return distinct[idx].copy()
    return random_seeds(pts, k, rng)


def largest_weight_seeds(
    points: np.ndarray, k: int, weights: np.ndarray
) -> np.ndarray:
    """Pick the ``k`` points with the largest weights (the merge seeding).

    Ties are broken deterministically by input order so merge results are
    reproducible for a fixed input stream.
    """
    pts = as_points(points)
    wts = as_weights(weights, pts.shape[0])
    kk = _effective_k(k, pts.shape[0])
    # Stable selection of the top-k by weight: sort by (-weight, index).
    order = np.lexsort((np.arange(pts.shape[0]), -wts))
    return pts[order[:kk]].copy()


def kmeans_plus_plus_seeds(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """D^2-weighted (k-means++) seeding, optionally weight-aware.

    Not the paper's seeding, but more than an ablation: it seeds the
    serial whole-cell oracle the end-to-end benchmark scores against,
    reduces the oversampled candidates of :func:`kmeans_parallel_seeds`,
    and is selectable for partials as ``seeding="kmeans++"``.  Each D²
    update is one ``cdist`` row (``_pair_sq_distances``).  Below 8
    dimensions that has the bits of numpy's broadcast square-and-sum;
    from 8 up numpy's unrolled sum may round the last ulp differently.
    """
    pts = as_points(points)
    wts = as_weights(weights, pts.shape[0])
    kk = _effective_k(k, pts.shape[0])
    n = pts.shape[0]

    probs = wts / wts.sum()
    first = int(rng.choice(n, p=probs))
    seeds = [pts[first]]
    closest_sq = _pair_sq_distances(pts, pts[first])

    while len(seeds) < kk:
        mass = closest_sq * wts
        total = mass.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen seeds; fill uniformly.
            remaining = kk - len(seeds)
            idx = rng.choice(n, size=remaining, replace=False)
            seeds.extend(pts[i] for i in idx)
            break
        nxt = int(rng.choice(n, p=mass / total))
        seeds.append(pts[nxt])
        np.minimum(closest_sq, _pair_sq_distances(pts, pts[nxt]), out=closest_sq)

    return np.asarray(seeds, dtype=np.float64)


def kmeans_parallel_seeds(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
    rounds: int = 5,
    oversampling: float | None = None,
) -> np.ndarray:
    """k-means|| seeding (Bahmani et al., "Scalable K-Means++").

    Instead of ``k`` strictly sequential D^2 draws, each of ``rounds``
    passes samples ~``oversampling`` candidates *independently* with
    probability proportional to their D^2 contribution, then the
    oversampled candidate set is reduced back to ``k`` by weighting each
    candidate with the point mass it attracts and running k-means++ over
    the candidates alone.  One high-quality seed set per shard replaces
    the paper's restart-heavy ``R``-times-random seeding, which is what
    makes restart-free parallel shards practical.

    Args:
        points: ``(n, d)`` candidate pool.
        k: number of seeds wanted.
        rng: generator driving every random draw (deterministic per cell).
        weights: optional point weights (mass-aware D^2 sampling).
        rounds: number of oversampling passes (the paper suggests ~5).
        oversampling: expected candidates per round (``ell``); defaults
            to ``2 * k`` as recommended by Bahmani et al.

    Returns:
        ``(k', d)`` seed array with ``k' = min(k, n)``.
    """
    pts = as_points(points)
    wts = as_weights(weights, pts.shape[0])
    kk = _effective_k(k, pts.shape[0])
    n = pts.shape[0]
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    ell = float(oversampling) if oversampling is not None else 2.0 * kk
    if ell <= 0.0:
        raise ValueError(f"oversampling must be > 0, got {ell}")

    probs = wts / wts.sum()
    first = int(rng.choice(n, p=probs))
    chosen = {first}
    closest_sq = _pair_sq_distances(pts, pts[first])

    for _ in range(rounds):
        cost = float((closest_sq * wts).sum())
        if cost <= 0.0:
            break  # every point already coincides with a candidate
        # Independent Bernoulli draws: p_x = min(1, ell * d^2(x) w_x / cost).
        p = np.minimum(1.0, ell * closest_sq * wts / cost)
        drawn = np.flatnonzero(rng.random(n) < p)
        fresh = [int(i) for i in drawn if int(i) not in chosen]
        if not fresh:
            continue
        chosen.update(fresh)
        # One candidate at a time: O(n) memory, and the minimum of the
        # same values whatever the order.
        for index in fresh:
            np.minimum(
                closest_sq, _pair_sq_distances(pts, pts[index]), out=closest_sq
            )

    candidates = np.array(sorted(chosen), dtype=np.intp)
    cand_pts = pts[candidates]
    if candidates.shape[0] <= kk:
        if candidates.shape[0] == kk:
            return cand_pts.copy()
        # Too few candidates survived oversampling; top up uniformly.
        pool = np.setdiff1d(np.arange(n), candidates, assume_unique=True)
        extra = rng.choice(pool, size=kk - candidates.shape[0], replace=False)
        return np.concatenate([cand_pts, pts[extra]], axis=0)

    # Weight every candidate by the point mass it attracts, then recluster
    # the small candidate set down to k with mass-aware k-means++.  The
    # owners come from the kernels' tiled pass (first-index argmin).
    owner, __ = _assign_rows(pts, cand_pts)
    cand_wts = np.bincount(owner, weights=wts, minlength=candidates.shape[0])
    cand_wts = np.maximum(cand_wts, np.finfo(np.float64).tiny)
    return kmeans_plus_plus_seeds(cand_pts, kk, rng, weights=cand_wts)


def resolve_strategy(name: str):
    """Map a strategy name to a callable ``(points, k, rng) -> seeds``.

    Recognised names: ``"random"``, ``"distinct"``, ``"kmeans++"``,
    ``"kmeans||"``.  The weight-based merge seeding is not resolvable here
    because its signature differs (it needs weights, not an rng).
    """
    strategies = {
        "random": random_seeds,
        "distinct": distinct_random_seeds,
        "kmeans++": kmeans_plus_plus_seeds,
        "kmeans||": kmeans_parallel_seeds,
    }
    if name not in strategies:
        raise ValueError(
            f"unknown seeding strategy {name!r}; expected one of {sorted(strategies)}"
        )
    return strategies[name]
