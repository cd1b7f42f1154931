"""Incremental cluster-model maintenance.

Grid cells are not static: a satellite keeps revisiting, so a cell's
bucket grows between clustering runs.  The partial/merge decomposition
gives incremental maintenance for free — an existing
:class:`~repro.core.model.ClusterModel` is itself a weighted centroid
set, so folding in new points is: partial k-means on the new chunk, then
a weighted merge of {old model, new summary}.

:func:`update_model` performs one such fold; :class:`IncrementalClusterer`
wraps it into a bounded-memory online clusterer whose state is never more
than ``k`` weighted centroids plus the incoming chunk.

This differs from the rejected *incremental merge* discipline of
Section 3.3 in scope, not mechanism: there, incremental folding was an
inferior alternative for a batch of simultaneously-available partitions;
here it is the only option because the data arrives over time.  The
paper's fairness caveat therefore applies — earlier data participates in
more merges — and :attr:`IncrementalClusterer.refresh_every` lets users
bound the drift by periodically re-merging retained summaries.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.merge import merge_kmeans
from repro.core.model import ClusterModel, WeightedCentroidSet, as_points
from repro.core.partial import partial_kmeans
from repro.core.recipe import DEFAULT_RECIPE, SERVE_RECIPE, Recipe

__all__ = ["fold_summary", "update_model", "IncrementalClusterer"]


def fold_summary(
    model: ClusterModel | None,
    summary: WeightedCentroidSet,
    k: int | None = None,
    recipe: Recipe = DEFAULT_RECIPE,
) -> ClusterModel:
    """Merge an already-computed partition summary into a cell model.

    This is the second half of :func:`update_model` — the deterministic
    weighted merge of {old model, new summary} — exposed on its own so
    callers that journal the summary (the serving layer's ingest path)
    can replay the exact fold after a restart: :func:`merge_kmeans` uses
    deterministic largest-weight seeding, so the folded model is a pure
    function of ``(model, summary)``.

    Args:
        model: the current cell model, ``None`` for a brand-new cell, or
            a :meth:`ClusterModel.empty` watermark (a zero-point cell);
            both of the latter bootstrap from ``summary`` alone.
        summary: the new chunk's weighted centroid summary.
        k: centroids in the folded model; defaults to ``model.k`` and is
            **required** when ``model`` is ``None`` or empty.
        recipe: the merge runs under its ``merge_max_iter`` cap and
            ``kernel``.

    Returns:
        A new :class:`ClusterModel` whose weights sum to
        ``old mass + summary mass``.

    Raises:
        ValueError: ``model`` is ``None``/empty and ``k`` was not given.
    """
    base_populated = model is not None and model.k > 0
    if k is None:
        if not base_populated:
            raise ValueError(
                "cannot fold into an empty model without k: pass k= to "
                "bootstrap a zero-point-cell watermark or a new cell"
            )
        k = model.k
    pool = [model.to_weighted_set()] if base_populated else []
    pool.append(summary)
    merged = merge_kmeans(
        pool, k, max_iter=recipe.merge_max_iter, kernel=recipe.kernel
    )
    base = model if model is not None else ClusterModel.empty(summary.dim)
    return ClusterModel(
        centroids=merged.model.centroids,
        weights=merged.model.weights,
        mse=merged.mse,
        method="partial/merge[incremental-update]",
        partitions=base.partitions + 1,
        restarts=base.restarts,
        partial_seconds=base.partial_seconds,
        merge_seconds=base.merge_seconds + merged.seconds,
        total_seconds=base.total_seconds + merged.seconds,
        extra={"updates": base.extra.get("updates", 0) + 1},
    )


def update_model(
    model: ClusterModel,
    new_points: np.ndarray,
    restarts: int = SERVE_RECIPE.restarts,
    rng: np.random.Generator | None = None,
    max_iter: int = SERVE_RECIPE.max_iter,
    k: int | None = None,
    kernel: str | None = None,
) -> ClusterModel:
    """Fold ``new_points`` into an existing cell model.

    Args:
        model: the current cell model (its weights are point counts).
            A :meth:`ClusterModel.empty` watermark — what zero-point
            cells emit — is bootstrapped from the new points alone,
            provided ``k`` is given.
        new_points: newly arrived measurements for the same cell.
        restarts: seed restarts for the new chunk's partial k-means.
        rng: randomness for the partial step (fresh default if ``None``).
        max_iter: Lloyd cap for both stages.
        k: centroids for the update; defaults to ``model.k`` and is
            **required** when ``model`` is an empty watermark.
        kernel: assignment backend for both stages.

    Returns:
        A new :class:`ClusterModel` with ``k`` preserved and weights
        summing to ``old mass + len(new_points)``.

    Raises:
        ValueError: ``model`` is an empty watermark and ``k`` was not
            given, or the recipe is bad (``restarts`` or ``max_iter``
            below 1, unknown ``kernel``).
    """
    recipe = Recipe(
        restarts=restarts, max_iter=max_iter, merge_max_iter=max_iter, kernel=kernel
    )
    pts = as_points(new_points)
    generator = rng if rng is not None else np.random.default_rng()
    if k is None:
        if model.k == 0:
            raise ValueError(
                "model is an empty zero-point-cell watermark: pass k= "
                "to bootstrap it from the new points"
            )
        k = model.k
    fresh = partial_kmeans(pts, k, recipe, generator, source="update")
    folded = fold_summary(model, fresh.summary, k=k, recipe=recipe)
    return replace(
        folded,
        restarts=recipe.restarts,
        partial_seconds=folded.partial_seconds + fresh.seconds,
        total_seconds=folded.total_seconds + fresh.seconds,
    )


class IncrementalClusterer:
    """Bounded-memory online clustering of one growing grid cell.

    State between chunks is at most ``refresh_every`` weighted summaries
    of ``k`` centroids each; the full point set is never retained.

    Args:
        k: centroids in the maintained model.
        restarts: seed restarts per incoming chunk.
        refresh_every: how many chunk summaries to retain before
            re-merging them collectively (1 = fold eagerly, the pure
            incremental discipline; larger values trade memory for the
            collective merge's statistical fairness).
        max_iter: Lloyd cap for all stages.
        seed: RNG seed.

    ``restarts`` and ``max_iter`` become the :attr:`recipe`
    (:class:`~repro.core.recipe.Recipe`), which refuses a bad value here.

    Example:
        >>> import numpy as np
        >>> from repro.core.incremental import IncrementalClusterer
        >>> clusterer = IncrementalClusterer(k=8, seed=0)
        >>> for _ in range(5):
        ...     clusterer.add(np.random.default_rng(0).normal(size=(200, 3)))
        >>> clusterer.model().k
        8
    """

    def __init__(
        self,
        k: int,
        restarts: int = SERVE_RECIPE.restarts,
        refresh_every: int = 4,
        max_iter: int = SERVE_RECIPE.max_iter,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self.k = k
        self.recipe = Recipe(
            restarts=restarts, max_iter=max_iter, merge_max_iter=max_iter
        )
        self.refresh_every = refresh_every
        self._rng = np.random.default_rng(seed)
        self._retained: list[WeightedCentroidSet] = []
        self._chunks_seen = 0
        self._points_seen = 0

    @property
    def points_seen(self) -> int:
        """Total points folded in so far."""
        return self._points_seen

    @property
    def chunks_seen(self) -> int:
        """Chunks folded in so far."""
        return self._chunks_seen

    def adopt(self, model: ClusterModel) -> None:
        """Fold an existing cell model (e.g. journal-replayed) into state.

        The model's weighted centroids join the retained summaries as if
        they were a chunk summary, so a clusterer can warm-start from a
        journaled model and keep folding new chunks after it.  An empty
        :meth:`ClusterModel.empty` watermark — what zero-point cells
        emit — is a no-op rather than an error: the cell simply has no
        mass to contribute yet.
        """
        if model.k == 0:
            return
        self._retained.append(model.to_weighted_set())
        self._points_seen += int(round(float(model.weights.sum())))
        if len(self._retained) >= self.refresh_every:
            self._compact()

    def add(self, chunk: np.ndarray) -> None:
        """Fold one chunk of new points into the running state."""
        pts = as_points(chunk)
        summary = partial_kmeans(
            pts, self.k, self.recipe, self._rng, source=f"chunk{self._chunks_seen}"
        ).summary
        self._retained.append(summary)
        self._chunks_seen += 1
        self._points_seen += pts.shape[0]
        if len(self._retained) >= self.refresh_every:
            self._compact()

    def _compact(self) -> None:
        """Collectively merge retained summaries down to one."""
        merged = merge_kmeans(
            self._retained, self.k, max_iter=self.recipe.merge_max_iter
        )
        self._retained = [merged.model]

    def model(self) -> ClusterModel:
        """The current cell model (compacts retained state first).

        Raises:
            ValueError: if no chunk has been added yet.
        """
        if not self._retained:
            raise ValueError("no data has been added yet")
        if len(self._retained) > 1:
            self._compact()
        summary = self._retained[0]
        return ClusterModel(
            centroids=summary.centroids,
            weights=summary.weights,
            mse=float("nan"),
            method="incremental-clusterer",
            partitions=self._chunks_seen,
            restarts=self.recipe.restarts,
            extra={"points_seen": self._points_seen},
        )
