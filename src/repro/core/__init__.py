"""Core contribution: the partial/merge k-means algorithm.

Public surface:

* :class:`~repro.core.pipeline.PartialMergeKMeans` — the high-level API.
* :func:`~repro.core.kmeans.lloyd` — the shared weighted Lloyd kernel.
* :func:`~repro.core.partial.partial_kmeans` / \
  :func:`~repro.core.merge.merge_kmeans` — the two stream-operator kernels.
* :class:`~repro.core.recipe.Recipe` — the partial/merge recipe (restarts,
  seeding, iteration caps, kernel) every entry point builds once.
* :mod:`~repro.core.seeding`, :mod:`~repro.core.convergence`,
  :mod:`~repro.core.quality` — the supporting policies and metrics.
* :func:`~repro.core.ecvq.ecvq` — the paper's future-work extension for
  adaptive per-partition ``k``.
"""

from repro.core.adaptive_k import EcvqPartialMergeKMeans, EcvqPartialMergeReport
from repro.core.checks import (
    ModelValidationError,
    ValidationReport,
    validate_model,
)
from repro.core.convergence import PAPER_MSE_DELTA, mse_converged
from repro.core.ecvq import EcvqResult, ecvq
from repro.core.incremental import IncrementalClusterer, update_model
from repro.core.model_selection import (
    distortion_curve,
    suggest_k_elbow,
    suggest_k_rate,
)
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.merge import MergeResult, incremental_merge_kmeans, merge_kmeans
from repro.core.model import ClusterModel, KMeansResult, WeightedCentroidSet
from repro.core.partial import PartialResult, partial_kmeans
from repro.core.pipeline import (
    PartialMergeKMeans,
    PartialMergeReport,
    split_into_chunks,
)
from repro.core.quality import mse, sse
from repro.core.recipe import Recipe
from repro.core.restarts import RestartReport, best_of_restarts

__all__ = [
    "PAPER_MSE_DELTA",
    "ModelValidationError",
    "ValidationReport",
    "validate_model",
    "DEFAULT_MAX_ITER",
    "mse_converged",
    "ClusterModel",
    "KMeansResult",
    "WeightedCentroidSet",
    "EcvqResult",
    "ecvq",
    "EcvqPartialMergeKMeans",
    "EcvqPartialMergeReport",
    "IncrementalClusterer",
    "update_model",
    "distortion_curve",
    "suggest_k_elbow",
    "suggest_k_rate",
    "lloyd",
    "MergeResult",
    "merge_kmeans",
    "incremental_merge_kmeans",
    "PartialResult",
    "partial_kmeans",
    "Recipe",
    "PartialMergeKMeans",
    "PartialMergeReport",
    "split_into_chunks",
    "RestartReport",
    "best_of_restarts",
    "mse",
    "sse",
]

