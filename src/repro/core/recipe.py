"""The partial/merge clustering recipe, checked in one place.

The paper's run has one recipe: ``R`` restarts of a seeding rule per
partition, Lloyd to the MSE-delta stop under a cap, then one weighted
merge under its own cap.  Each entry point (``Query``, ``run_sharded``,
``ModelRegistry``, ``PartialMergeKMeans``, ...) turns its keyword
arguments into one :class:`Recipe` when it is built — so a bad value is
refused there, before any worker starts — and the partial and merge code
of every backend reads that recipe.  The primitives (``lloyd``,
``best_of_restarts``, ``merge_kmeans``) keep their own checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import resolve_kernel
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.seeding import resolve_strategy

__all__ = ["Recipe", "DEFAULT_RECIPE", "SERVE_RECIPE", "SHARD_RECIPE"]


@dataclass(frozen=True)
class Recipe:
    """One partial/merge recipe: frozen, hashable and picklable.

    Attributes:
        restarts: seed sets tried per partition; the min-MSE run wins
            (the paper's ``R``).
        seeding: partial-stage seed rule (``"random"``, ``"distinct"``,
            ``"kmeans++"`` or ``"kmeans||"``).
        max_iter: Lloyd iteration cap of every partial run.
        merge_max_iter: Lloyd iteration cap of every merge — the plan
            sink's, the shard worker's, the coreset tree's and the
            serving fold's.
        kernel: Lloyd assignment kernel for both stages (``None`` defers
            to ``REPRO_KMEANS_KERNEL``, then the size rule; the kernels
            are bit-identical).

    Raises:
        ValueError: on a cap or restart count below 1, an unknown seed
            rule or an unknown kernel name.
    """

    restarts: int = 10
    seeding: str = "random"
    max_iter: int = DEFAULT_MAX_ITER
    merge_max_iter: int = DEFAULT_MAX_ITER
    kernel: str | None = None

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iter", "merge_max_iter"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        resolve_strategy(self.seeding)
        # With no kernel named this checks REPRO_KMEANS_KERNEL, which
        # every lloyd call of the run will read; a bad value therefore
        # fails the import of this module (the defaults below).
        resolve_kernel(self.kernel)


#: ``Query``, ``run_partial_merge_stream``, ``PartialMergeKMeans``,
#: ``PartialKMeansOperator`` and the merge sinks, tree and fold: the
#: paper's recipe — ten random restarts per partition, both stages
#: capped at ``DEFAULT_MAX_ITER``.
DEFAULT_RECIPE = Recipe()

#: ``ModelRegistry``, ``update_model`` and ``IncrementalClusterer``: three
#: restarts, because each ingested chunk's partial k-means runs while the
#: ingest waits (ingest latency).
SERVE_RECIPE = Recipe(restarts=3)

#: ``run_sharded``: one k-means|| seed set per partition (Bahmani et al.,
#: "Scalable K-Means++"), so each cell is clustered once, near its data.
SHARD_RECIPE = Recipe(restarts=1, seeding="kmeans||")
