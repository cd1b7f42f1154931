"""BIRCH (Zhang, Ramakrishnan & Livny 1996) — CF-tree clustering baseline.

The paper cites BIRCH as the canonical database answer to the memory
bottleneck, applicable "only in a limited sense" to the per-grid-cell
setting.  A complete single-pass CF-tree is implemented here so the
benchmarks can compare its quality/time against partial/merge on identical
cells.

Clustering features (CF) are the classic triple ``(n, LS, SS)``:
point count, linear sum and squared-norm sum, which compose additively and
give centroid and radius in O(1).  Phase 1 builds the height-balanced
CF-tree with a radius ``threshold``; phase 3 (global clustering) runs
weighted k-means over the leaf entries' centroids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.model import ClusterModel, as_points
from repro.core.quality import mse as evaluate_mse
from repro.core.seeding import largest_weight_seeds

__all__ = ["CFEntry", "CFNode", "Birch"]


@dataclass(eq=False)
class CFEntry:
    """One clustering feature: ``(n, LS, SS)``.

    Compared by identity (``eq=False``): entries hold numpy arrays, and
    tree surgery removes entries from node lists by object identity.

    Attributes:
        n: number of points summarised.
        linear_sum: ``(d,)`` sum of the points.
        square_sum: scalar sum of squared norms.
        child: subtree summarised by this entry (``None`` in leaves).
    """

    n: float
    linear_sum: np.ndarray
    square_sum: float
    child: "CFNode | None" = None

    @staticmethod
    def of_point(point: np.ndarray) -> "CFEntry":
        """CF of a single point."""
        return CFEntry(
            n=1.0,
            linear_sum=point.astype(np.float64).copy(),
            square_sum=float(np.dot(point, point)),
        )

    @property
    def centroid(self) -> np.ndarray:
        """Centroid of the summarised points."""
        return self.linear_sum / self.n

    @property
    def radius(self) -> float:
        """RMS distance of summarised points to the centroid."""
        centroid = self.centroid
        variance = self.square_sum / self.n - float(np.dot(centroid, centroid))
        return float(np.sqrt(max(0.0, variance)))

    def absorb(self, other: "CFEntry") -> None:
        """Merge ``other`` into this CF (additivity theorem)."""
        self.n += other.n
        self.linear_sum = self.linear_sum + other.linear_sum
        self.square_sum += other.square_sum

    def merged_radius(self, other: "CFEntry") -> float:
        """Radius the union of the two CFs would have."""
        n = self.n + other.n
        ls = self.linear_sum + other.linear_sum
        ss = self.square_sum + other.square_sum
        centroid = ls / n
        variance = ss / n - float(np.dot(centroid, centroid))
        return float(np.sqrt(max(0.0, variance)))


@dataclass
class CFNode:
    """A CF-tree node holding up to ``capacity`` entries."""

    capacity: int
    is_leaf: bool
    entries: list[CFEntry] = field(default_factory=list)

    @property
    def overflowing(self) -> bool:
        """Whether the node exceeds its capacity and must split."""
        return len(self.entries) > self.capacity

    def nearest_entry(self, centroid: np.ndarray) -> CFEntry:
        """Entry whose centroid is closest to ``centroid``."""
        centroids = np.array([e.centroid for e in self.entries])
        distances = ((centroids - centroid) ** 2).sum(axis=1)
        return self.entries[int(np.argmin(distances))]

    def split(self) -> tuple["CFNode", "CFNode"]:
        """Split by farthest-pair seeding, reassigning entries by distance."""
        centroids = np.array([e.centroid for e in self.entries])
        diffs = centroids[:, None, :] - centroids[None, :, :]
        d2 = (diffs**2).sum(axis=2)
        a, b = np.unravel_index(np.argmax(d2), d2.shape)
        left = CFNode(capacity=self.capacity, is_leaf=self.is_leaf)
        right = CFNode(capacity=self.capacity, is_leaf=self.is_leaf)
        for index, entry in enumerate(self.entries):
            target = left if d2[index, a] <= d2[index, b] else right
            target.entries.append(entry)
        # Guard against a degenerate split leaving one side empty.
        if not left.entries:
            left.entries.append(right.entries.pop())
        if not right.entries:
            right.entries.append(left.entries.pop())
        return left, right


def _summarise(node: CFNode) -> CFEntry:
    """Aggregate CF of a whole node."""
    total = CFEntry(
        n=0.0,
        linear_sum=np.zeros_like(node.entries[0].linear_sum),
        square_sum=0.0,
        child=node,
    )
    for entry in node.entries:
        total.n += entry.n
        total.linear_sum = total.linear_sum + entry.linear_sum
        total.square_sum += entry.square_sum
    return total


class Birch:
    """Single-pass CF-tree clustering with a weighted k-means phase 3.

    Args:
        k: final number of clusters.
        threshold: maximum radius of a leaf CF after absorbing a point.
        branching: maximum entries per internal node.
        leaf_entries: maximum entries per leaf node.
        max_iter: Lloyd cap for the global k-means.

    Example:
        >>> import numpy as np
        >>> from repro.baselines import Birch
        >>> data = np.random.default_rng(0).normal(size=(1000, 6))
        >>> model = Birch(k=10, threshold=0.8).fit(data)
        >>> model.method
        'birch'
    """

    def __init__(
        self,
        k: int,
        threshold: float = 0.5,
        branching: int = 50,
        leaf_entries: int = 50,
        max_iter: int = DEFAULT_MAX_ITER,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if branching < 2 or leaf_entries < 2:
            raise ValueError("branching and leaf_entries must be >= 2")
        self.k = k
        self.threshold = threshold
        self.branching = branching
        self.leaf_entries = leaf_entries
        self.max_iter = max_iter
        self._root: CFNode | None = None

    # -- tree construction ---------------------------------------------------

    def _insert(self, node: CFNode, incoming: CFEntry) -> list[CFNode] | None:
        """Insert into the subtree; returns replacement nodes on split."""
        if node.is_leaf:
            if node.entries:
                nearest = node.nearest_entry(incoming.centroid)
                if nearest.merged_radius(incoming) <= self.threshold:
                    nearest.absorb(incoming)
                    return None
            node.entries.append(incoming)
            if node.overflowing:
                return list(node.split())
            return None

        nearest = node.nearest_entry(incoming.centroid)
        assert nearest.child is not None
        replacement = self._insert(nearest.child, incoming)
        if replacement is None:
            # Refresh the summary CF along the descent path.
            refreshed = _summarise(nearest.child)
            nearest.n = refreshed.n
            nearest.linear_sum = refreshed.linear_sum
            nearest.square_sum = refreshed.square_sum
            return None
        node.entries.remove(nearest)
        node.entries.extend(_summarise(child) for child in replacement)
        if node.overflowing:
            return list(node.split())
        return None

    def _insert_point(self, point: np.ndarray) -> None:
        if self._root is None:
            self._root = CFNode(capacity=self.leaf_entries, is_leaf=True)
        replacement = self._insert(self._root, CFEntry.of_point(point))
        if replacement is not None:
            new_root = CFNode(capacity=self.branching, is_leaf=False)
            new_root.entries = [_summarise(child) for child in replacement]
            self._root = new_root

    def leaf_summaries(self) -> tuple[np.ndarray, np.ndarray]:
        """All leaf CF centroids and their point counts."""
        if self._root is None:
            raise ValueError("fit has not been called")
        centroids: list[np.ndarray] = []
        weights: list[float] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    centroids.append(entry.centroid)
                    weights.append(entry.n)
            else:
                for entry in node.entries:
                    assert entry.child is not None
                    stack.append(entry.child)
        return np.asarray(centroids), np.asarray(weights)

    # -- public API ------------------------------------------------------------

    def fit(self, points: np.ndarray) -> ClusterModel:
        """Build the CF-tree in one pass and globally cluster the leaves."""
        pts = as_points(points)
        self._root = None
        start = time.perf_counter()
        for point in pts:
            self._insert_point(point)
        centroids, weights = self.leaf_summaries()

        if centroids.shape[0] <= self.k:
            final_centroids, final_weights = centroids, weights
        else:
            seeds = largest_weight_seeds(centroids, self.k, weights)
            result = lloyd(
                centroids,
                seeds,
                weights=weights,
                max_iter=self.max_iter,
            )
            summary = result.to_weighted_set()
            final_centroids, final_weights = summary.centroids, summary.weights
        elapsed = time.perf_counter() - start

        return ClusterModel(
            centroids=final_centroids,
            weights=final_weights,
            mse=evaluate_mse(pts, final_centroids),
            method="birch",
            total_seconds=elapsed,
            extra={
                "leaf_cf_count": int(centroids.shape[0]),
                "threshold": self.threshold,
            },
        )
