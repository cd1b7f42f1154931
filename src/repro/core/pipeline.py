"""High-level partial/merge k-means API.

:class:`PartialMergeKMeans` is the library's front door: it takes a grid
cell's points (as an array or as an already-partitioned stream of chunks),
runs partial k-means over every chunk — serially or on a thread pool, which
models the paper's cloned operators — and merges the weighted centroids
into the final cell model.

For the full stream-engine execution (bounded queues, planner-driven
cloning), see :mod:`repro.stream.kmeans_ops`, which wires the same partial
and merge kernels into dataflow operators.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.merge import MergeResult, merge_kmeans
from repro.core.model import ClusterModel, as_points
from repro.core.partial import PartialResult, partial_kmeans
from repro.core.quality import mse as evaluate_mse
from repro.core.recipe import DEFAULT_RECIPE, Recipe

__all__ = ["PartialMergeKMeans", "PartialMergeReport", "split_into_chunks"]


def split_into_chunks(
    points: np.ndarray, n_chunks: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Randomly distribute points over ``n_chunks`` equal-sized chunks.

    This reproduces the paper's experiment setup: "the data points of a
    complete cell were randomly distributed over 5 or 10 'chunks'".  Chunk
    sizes differ by at most one point.
    """
    pts = as_points(points)
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if n_chunks > pts.shape[0]:
        raise ValueError(
            f"cannot split {pts.shape[0]} points into {n_chunks} chunks"
        )
    perm = rng.permutation(pts.shape[0])
    return [pts[idx] for idx in np.array_split(perm, n_chunks)]


@dataclass(frozen=True)
class PartialMergeReport:
    """Full diagnostics of one partial/merge run.

    Attributes:
        model: the final :class:`ClusterModel` for the cell.
        partials: per-partition results, in completion order.
        merge: the merge-step result.
    """

    model: ClusterModel
    partials: list[PartialResult]
    merge: MergeResult


class PartialMergeKMeans:
    """Partial/merge k-means for one grid cell.

    Args:
        k: number of centroids in the final model (and per partition).
        restarts: random-seed restarts per partition (the paper's ``R``).
        n_chunks: number of partitions when :meth:`fit` receives a flat
            array; ignored by :meth:`fit_chunks`.
        max_workers: partial-operator clones; ``1`` runs partials serially
            on one "machine" as in the paper's single-host measurements,
            larger values model cloned operators on several machines.
        merge_restarts: extra randomly-seeded merge runs beyond the
            paper's deterministic largest-weight seeding; the best run
            wins.  0 (default) reproduces the paper; 2-3 repairs the
            merge collapses seen with many highly-overlapping chunks.
        seeding: restart seed strategy for partial steps.
        max_iter: per-run Lloyd iteration cap, for partial and merge
            steps alike.
        kernel: Lloyd assignment backend (see ``docs/kernels.md``) used
            by partial and merge steps alike; ``None`` consults
            ``REPRO_KMEANS_KERNEL``.  Exact backends are bit-identical —
            a performance knob only.
        seed: seed for the internal random generator.

    ``restarts``, ``seeding``, ``max_iter`` and ``kernel`` become its
    :attr:`recipe` (:class:`~repro.core.recipe.Recipe`), which refuses a
    bad value here.

    Example:
        >>> import numpy as np
        >>> from repro.core.pipeline import PartialMergeKMeans
        >>> rng = np.random.default_rng(0)
        >>> data = rng.normal(size=(1000, 6))
        >>> algo = PartialMergeKMeans(k=8, restarts=3, n_chunks=5, seed=0)
        >>> model = algo.fit(data).model
        >>> model.k
        8
    """

    def __init__(
        self,
        k: int,
        restarts: int = DEFAULT_RECIPE.restarts,
        n_chunks: int = 5,
        max_workers: int = 1,
        merge_restarts: int = 0,
        seeding: str = DEFAULT_RECIPE.seeding,
        max_iter: int = DEFAULT_RECIPE.max_iter,
        kernel: str | None = None,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if merge_restarts < 0:
            raise ValueError(f"merge_restarts must be >= 0, got {merge_restarts}")
        self.k = k
        # Both stages run at the one cap.
        self.recipe = Recipe(restarts, seeding, max_iter, max_iter, kernel)
        self.n_chunks = n_chunks
        self.max_workers = max_workers
        self.merge_restarts = merge_restarts
        self._rng = np.random.default_rng(seed)

    def fit(self, points: np.ndarray) -> PartialMergeReport:
        """Split ``points`` into ``n_chunks`` random chunks and cluster.

        The random split reproduces the paper's experimental setup; use
        :meth:`fit_chunks` to supply a custom partitioning (e.g. the
        spatial or salami strategies in :mod:`repro.data.partitioning`).
        """
        pts = as_points(points)
        chunks = split_into_chunks(pts, min(self.n_chunks, pts.shape[0]), self._rng)
        return self.fit_chunks(chunks, evaluate_on=pts)

    def fit_chunks(
        self,
        chunks: Sequence[np.ndarray] | Iterable[np.ndarray],
        evaluate_on: np.ndarray | None = None,
    ) -> PartialMergeReport:
        """Cluster pre-partitioned chunks.

        Args:
            chunks: the data partitions; each must fit in memory (by
                construction of the caller's partitioner).
            evaluate_on: if given, the final model's MSE is computed
                against these raw points (the harness's fair comparison);
                otherwise the weighted merge MSE is reported.

        Returns:
            A :class:`PartialMergeReport`.
        """
        chunk_list = [as_points(c) for c in chunks]
        if not chunk_list:
            raise ValueError("fit_chunks requires at least one chunk")

        start = time.perf_counter()
        partials = self._run_partials(chunk_list)
        merge = self._run_merge(partials)
        total = time.perf_counter() - start

        if evaluate_on is not None:
            final_mse = evaluate_mse(evaluate_on, merge.model.centroids)
        else:
            final_mse = merge.mse

        model = ClusterModel(
            centroids=merge.model.centroids,
            weights=merge.model.weights,
            mse=final_mse,
            method="partial/merge[collective]",
            partitions=len(chunk_list),
            restarts=self.recipe.restarts,
            partial_seconds=sum(p.seconds for p in partials),
            merge_seconds=merge.seconds,
            total_seconds=total,
            extra={
                "partial_iterations": [p.iterations for p in partials],
                "merge_iterations": merge.iterations,
                "partial_mses": [p.mse for p in partials],
                "max_workers": self.max_workers,
            },
        )
        return PartialMergeReport(model=model, partials=partials, merge=merge)

    def _run_partials(self, chunks: list[np.ndarray]) -> list[PartialResult]:
        """Run the partial operator on every chunk (serially or cloned)."""
        # Pre-draw one child seed per chunk so results do not depend on
        # thread completion order.
        child_seeds = self._rng.integers(0, 2**63 - 1, size=len(chunks))
        jobs = [
            (chunk, np.random.default_rng(int(child_seed)), f"P{index}")
            for index, (chunk, child_seed) in enumerate(zip(chunks, child_seeds))
        ]

        def run(job: tuple[np.ndarray, np.random.Generator, str]) -> PartialResult:
            chunk, rng, label = job
            return partial_kmeans(chunk, self.k, self.recipe, rng, source=label)

        if self.max_workers == 1 or len(jobs) == 1:
            return [run(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(run, jobs))

    def _run_merge(self, partials: list[PartialResult]) -> MergeResult:
        """Collective merge of the partial summaries (the paper's Step 3)."""
        return merge_kmeans(
            [p.summary for p in partials],
            self.k,
            max_iter=self.recipe.merge_max_iter,
            extra_random_restarts=self.merge_restarts,
            rng=self._rng,
            kernel=self.recipe.kernel,
        )
