"""Partial/merge k-means as stream operators.

This module wires the :mod:`repro.core` kernels into the stream engine the
way the paper's prototype wired them into Conquest:

* :class:`GridCellChunkSource` — the scan operator; emits each grid cell's
  points as randomly assigned, memory-sized :class:`DataChunk` items.
* :class:`PartialKMeansOperator` — cloneable transform; clusters one chunk
  into a :class:`CentroidMessage` of weighted centroids.
* :class:`MergeKMeansSink` — the consumer; pools each cell's weighted
  centroids and runs the collective merge k-means (:func:`merge_cell`),
  finalising a cell as soon as its last partition arrives.

:func:`run_partial_merge_stream` assembles the graph, plans it against a
resource envelope (which decides partial clone counts) and executes it.
The shard runtime (:mod:`repro.stream.shard`) runs the same partial
operator, :func:`chunk_rng` and :func:`merge_cell` inside its workers.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.kernels import KernelCounters, merge_counter_dicts
from repro.core.merge import merge_kmeans
from repro.core.model import ClusterModel, as_points
from repro.core.partial import partial_kmeans
from repro.core.pipeline import split_into_chunks
from repro.core.quality import mse as evaluate_mse
from repro.core.recipe import DEFAULT_RECIPE, Recipe
from repro.stream.executor import ExecutionResult, Executor
from repro.stream.faults import FaultPlan
from repro.stream.graph import DataflowGraph
from repro.stream.items import CentroidMessage, DataChunk, Watermark
from repro.stream.mp import SHARDS, resolve_backend
from repro.stream.operators import Sink, Source, Transform
from repro.stream.planner import Planner
from repro.stream.scheduler import ResourceManager
from repro.stream.supervision import RetryPolicy, SupervisionPolicy, Supervisor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checkpoint uses items)
    from repro.stream.checkpoint import JournalWriter
    from repro.stream.helpers import PartialPool

__all__ = [
    "GridCellChunkSource",
    "PartialKMeansOperator",
    "PartialKMeansSpec",
    "MergeKMeansSink",
    "cell_digest",
    "chunk_rng",
    "coerce_cell_points",
    "merge_cell",
    "build_partial_merge_graph",
    "run_partial_merge_stream",
]

#: ``ClusterModel.method`` recorded by the plan-based backends.
STREAM_METHOD = "partial/merge[stream]"


def coerce_cell_points(points: np.ndarray) -> np.ndarray:
    """Validate one cell's points, allowing the zero-point cell."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        dim = arr.shape[1] if arr.ndim == 2 else 1
        return np.zeros((0, max(1, dim)), dtype=np.float64)
    return as_points(arr)


def cell_digest(cell_id: str) -> bytes:
    """Stable 8-byte digest of a cell id (RNG keying, journal names)."""
    return hashlib.blake2b(cell_id.encode("utf-8"), digest_size=8).digest()


def chunk_rng(
    seed_sequence: np.random.SeedSequence, cell_id: str, slot: int
) -> np.random.Generator:
    """Chunk-identity RNG: a pure function of ``(seed, cell, slot)``.

    ``slot`` is the partition index for a partition's partial k-means.
    Never a function of processing order, clone or worker identity —
    which is what makes clone counts, backends and journal replay
    bit-identical.
    """
    digest = cell_digest(cell_id)
    derived = np.random.SeedSequence(
        entropy=seed_sequence.entropy,
        spawn_key=tuple(seed_sequence.spawn_key)
        + (
            int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little"),
            slot,
        ),
    )
    return np.random.default_rng(derived)


def merge_cell(
    messages: Iterable[CentroidMessage],
    k: int,
    recipe: Recipe = DEFAULT_RECIPE,
    expected: int = 0,
    evaluate_on: np.ndarray | None = None,
    method: str = STREAM_METHOD,
) -> tuple[ClusterModel, KernelCounters | None]:
    """Collective merge over one cell's partition summaries.

    Pools the summaries in partition order, runs the weighted merge
    k-means and builds the cell's :class:`ClusterModel` (contract in
    :class:`MergeKMeansSink`).  With ``expected`` partitions declared and
    fewer present, the model carries the ``incomplete`` extras.

    Args:
        messages: the cell's partition summaries, in any order.
        k: centroids in the final model.
        recipe: the merge k-means runs under its ``merge_max_iter`` cap
            and ``kernel``.
        expected: partitions the cell was split into (0 = unknown).
        evaluate_on: the cell's raw points; when given the model's MSE is
            measured on them instead of on the pooled centroids.
        method: ``ClusterModel.method`` label.

    Returns:
        ``(model, merge_counters)`` — the merge run's kernel counters, or
        ``None`` when it recorded none.
    """
    ordered = sorted(messages, key=lambda m: m.partition)
    start = time.perf_counter()
    merged = merge_kmeans(
        [m.summary for m in ordered],
        k,
        max_iter=recipe.merge_max_iter,
        kernel=recipe.kernel,
    )
    total = time.perf_counter() - start
    final_mse = (
        evaluate_mse(evaluate_on, merged.model.centroids)
        if evaluate_on is not None
        else merged.mse
    )
    partial_seconds = sum(m.partial_seconds for m in ordered)
    extra: dict = {
        "merge_iterations": merged.iterations,
        "partial_iterations": [m.partial_iterations for m in ordered],
    }
    if expected and len(ordered) != expected:
        # Finalising short: partitions were lost upstream.  The model is
        # still usable, but the loss must be visible.  Shape contract
        # (shared with CoresetTreeSink and the shard runtime, asserted by
        # tests and JSON-journal-safe): ``incomplete`` is True,
        # ``expected_partitions`` is an int, ``missing_partitions`` is a
        # sorted list of ints.
        present = {m.partition for m in ordered}
        extra["incomplete"] = True
        extra["expected_partitions"] = int(expected)
        extra["missing_partitions"] = sorted(
            int(p) for p in set(range(expected)) - present
        )
    model = ClusterModel(
        centroids=merged.model.centroids,
        weights=merged.model.weights,
        mse=final_mse,
        method=method,
        partitions=len(ordered),
        partial_seconds=partial_seconds,
        merge_seconds=merged.seconds,
        total_seconds=partial_seconds + total,
        extra=extra,
    )
    return model, merged.counters


class GridCellChunkSource(Source):
    """Scan operator: streams grid cells as random equal-sized chunks.

    Models the paper's scan step: all points of a cell "arrive
    sequentially, and in random order"; the source slices them into the
    number of partitions dictated by the memory budget (or an explicit
    ``n_chunks``).

    Args:
        cells: mapping from cell id to its ``(n, d)`` point array.
        n_chunks: fixed partition count per cell; ``None`` derives it from
            ``resources`` (the adaptive behaviour the paper argues for).
        resources: memory envelope used when ``n_chunks`` is ``None``.
        seed: RNG seed controlling the random chunk assignment.
        name: operator name.
    """

    def __init__(
        self,
        cells: Mapping[str, np.ndarray],
        n_chunks: int | None = None,
        resources: ResourceManager | None = None,
        seed: int | None = None,
        name: str = "scan",
    ) -> None:
        super().__init__(name)
        if not cells:
            raise ValueError("cells mapping must not be empty")
        if n_chunks is None and resources is None:
            raise ValueError("provide either n_chunks or resources")
        self._cells = {
            cell: coerce_cell_points(points) for cell, points in cells.items()
        }
        self._n_chunks = n_chunks
        self._resources = resources
        self._rng = np.random.default_rng(seed)

    def generate(self) -> Iterator[DataChunk | Watermark]:
        for cell_id, points in self._cells.items():
            if points.shape[0] == 0:
                # A cell with no points produces no chunks, but it must
                # still appear in the results: announce it with a
                # zero-partition watermark so the merge sink records an
                # empty model instead of the cell silently vanishing.
                yield Watermark(
                    cell_id,
                    n_partitions=0,
                    payload={"dim": int(points.shape[1]), "n_points": 0},
                )
                continue
            if self._n_chunks is not None:
                chunks_wanted = self._n_chunks
            else:
                assert self._resources is not None
                chunks_wanted = self._resources.partitions_for(
                    points.shape[0], points.shape[1]
                )
            chunks_wanted = min(chunks_wanted, points.shape[0])
            chunks = split_into_chunks(points, chunks_wanted, self._rng)
            for index, chunk in enumerate(chunks):
                yield DataChunk(
                    cell_id=cell_id,
                    partition=index,
                    points=chunk,
                    n_partitions=len(chunks),
                )


class PartialKMeansOperator(Transform):
    """Cloneable transform running partial k-means on each chunk.

    Every chunk's RNG is derived from the base seed and the chunk's
    identity ``(cell_id, partition)`` — never from processing order — so
    a partition's weighted centroids depend only on the seed and the
    chunk's points.  That makes parallel plans reproducible for a fixed
    seed *regardless of clone count or scheduling*, and it is what lets a
    journal resume (:mod:`repro.stream.checkpoint`) skip completed
    partitions and still produce a bit-identical final model.  Clones
    share the base seed sequence for the same reason.

    ``restarts``, ``seeding``, ``max_iter`` and ``kernel`` become the
    operator's :attr:`recipe`; :meth:`from_recipe` builds the operator
    from a whole :class:`~repro.core.recipe.Recipe` instead.  Either way
    a bad recipe is refused here, in the process that plans the run: a
    worker that failed on it would only drop its partitions.
    """

    def __init__(
        self,
        k: int,
        restarts: int = DEFAULT_RECIPE.restarts,
        seeding: str = DEFAULT_RECIPE.seeding,
        max_iter: int = DEFAULT_RECIPE.max_iter,
        kernel: str | None = None,
        seed_sequence: np.random.SeedSequence | None = None,
        name: str = "partial",
    ) -> None:
        super().__init__(name)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.recipe = Recipe(
            restarts=restarts, seeding=seeding, max_iter=max_iter, kernel=kernel
        )
        self.seed_sequence = (
            seed_sequence if seed_sequence is not None else np.random.SeedSequence()
        )
        #: The run's :class:`~repro.stream.helpers.PartialPool`, set by the
        #: executor for the length of one run; ``None`` computes every
        #: partition on this operator's thread.  Same bits.
        self.pool: "PartialPool | None" = None

    @classmethod
    def from_recipe(
        cls,
        k: int,
        recipe: Recipe,
        seed_sequence: np.random.SeedSequence | None = None,
        name: str = "partial",
    ) -> "PartialKMeansOperator":
        """The operator running ``recipe``'s partial stage."""
        operator = cls(k, seed_sequence=seed_sequence, name=name)
        operator.recipe = recipe
        return operator

    def clone(self) -> "PartialKMeansOperator":
        return PartialKMeansOperator.from_recipe(
            self.k, self.recipe, self.seed_sequence, self.name
        )

    def process(self, item: DataChunk | Watermark) -> list:
        return self.submit(item)()

    def submit(self, item: DataChunk | Watermark) -> Callable[[], list]:
        """Start ``item``; the returned call gives its outputs.

        With the run's pool attached, a partition the pool takes whole
        goes to a free worker (the call gathers it; it is ``ready`` once
        gathered); any other item is computed here, before this returns.
        Control messages pass through untouched: the merge sink
        correlates them with the per-cell message count, so clone
        reordering cannot finalise a cell early.
        """
        if isinstance(item, Watermark):
            return lambda: [item]
        pool = self.pool
        if pool is not None and pool.takes_whole(
            item.points.shape[0], self.recipe.restarts
        ):
            task = pool.post(item, self._summarise)
            if task is not None:
                return task
        outputs = self._summarise(item)
        return lambda: outputs

    def _summarise(self, item: DataChunk) -> list[CentroidMessage]:
        """The partition's summary, computed on this thread (restarts
        fan out over the pool when it has one)."""
        result = partial_kmeans(
            item.points,
            self.k,
            self.recipe,
            chunk_rng(self.seed_sequence, item.cell_id, item.partition),
            source=f"{item.cell_id}/P{item.partition}",
            runner=self.pool,
        )
        message = CentroidMessage(
            cell_id=item.cell_id,
            partition=item.partition,
            summary=result.summary,
            n_partitions=item.n_partitions,
            partial_seconds=result.seconds,
            partial_iterations=result.iterations,
            kernel_counters=(
                result.counters.as_dict() if result.counters else None
            ),
        )
        return [message]

    def to_spec(self) -> "PartialKMeansSpec":
        """Picklable spec for a pool worker (rebuilds this clone)."""
        base = self.seed_sequence
        return PartialKMeansSpec(
            k=self.k,
            recipe=self.recipe,
            entropy=base.entropy,
            spawn_key=tuple(base.spawn_key),
            name=self.name,
        )


@dataclass(frozen=True)
class PartialKMeansSpec:
    """Picklable spec rebuilding a :class:`PartialKMeansOperator`.

    The partial pool ships this spec to its workers instead of the
    operator itself; ``recipe`` is the operator's frozen
    :class:`~repro.core.recipe.Recipe`.  ``entropy``/``spawn_key``
    reconstruct the shared seed sequence exactly, so a worker-built
    clone derives the same chunk-identity RNG streams as the in-process
    original — which is why pooled and one-thread runs of the same plan
    are bit-identical.
    """

    k: int
    recipe: Recipe
    entropy: int
    spawn_key: tuple[int, ...]
    name: str

    def build(self) -> PartialKMeansOperator:
        return PartialKMeansOperator.from_recipe(
            self.k,
            self.recipe,
            np.random.SeedSequence(entropy=self.entropy, spawn_key=self.spawn_key),
            self.name,
        )


class MergeKMeansSink(Sink):
    """Terminal consumer: collective merge k-means per grid cell.

    A cell is finalised eagerly once all of its partitions have arrived
    (count known from the messages); any cells still pending at end of
    stream are finalised in :meth:`result`.

    Every final model's ``extra`` dict carries ``merge_iterations`` (int)
    and ``partial_iterations`` (list of int, in partition order).  A cell
    finalised with partitions missing (``degrade`` drops upstream)
    additionally carries ``incomplete`` (True), ``expected_partitions``
    (int) and ``missing_partitions`` (sorted list of int); a declared
    empty cell carries ``empty_cell`` (True) instead.  All values are
    JSON-safe, so the shape survives a journal round-trip — subclasses
    (:class:`~repro.stream.coreset.CoresetTreeSink`) share this contract.

    Args:
        k: centroids in each final cell model.
        recipe: every merge runs under its ``merge_max_iter`` cap and
            ``kernel``.
        evaluate_on: optional mapping of cell id to raw points; when given,
            each final model's MSE is recomputed against the raw data so
            results are directly comparable with the serial baseline.
        journal: optional run journal
            (:class:`~repro.stream.checkpoint.JournalWriter`); every
            streamed partition summary is journaled on arrival and every
            finalised cell model on completion, which is what makes a
            killed run resumable.
    """

    def __init__(
        self,
        k: int,
        recipe: Recipe = DEFAULT_RECIPE,
        evaluate_on: Mapping[str, np.ndarray] | None = None,
        journal: "JournalWriter | None" = None,
        name: str = "merge",
    ) -> None:
        super().__init__(name)
        self.k = k
        self.recipe = recipe
        self._evaluate_on = dict(evaluate_on or {})
        self._journal = journal
        self._pending: dict[str, list[CentroidMessage]] = {}
        self._expected: dict[str, int] = {}
        self._models: dict[str, ClusterModel] = {}
        #: Cells finalised with partitions missing (a ``degrade`` drop
        #: upstream), in finalisation order; the executor copies this
        #: into the sink's :class:`~repro.stream.metrics.OperatorMetrics`.
        self.incomplete_cells: list[str] = []
        #: Kernel instrumentation aggregated across the run, keyed by
        #: pipeline stage (``"partial"`` counters arrive on the centroid
        #: messages — surviving the process backend for free — and
        #: ``"merge"`` counters come from the sink's own merge runs).
        #: The executor copies this into the sink's ``OperatorMetrics``.
        self.kernel_counters: dict[str, dict] = {}

    def preload(self, messages: Iterable[CentroidMessage]) -> None:
        """Replay journaled partition summaries without re-journaling them.

        Used on resume: completed partitions flow straight into the merge
        state, and cells whose last partition was already journaled are
        finalised immediately.
        """
        for message in messages:
            bucket = self._pending.setdefault(message.cell_id, [])
            bucket.append(message)
            if message.n_partitions:
                self._expected[message.cell_id] = message.n_partitions
        for cell_id in list(self._pending):
            self._maybe_finalize(cell_id)

    def preload_model(self, cell_id: str, model: ClusterModel) -> None:
        """Adopt an already-finalised cell model from the journal."""
        self._models[cell_id] = model

    def consume(self, item: CentroidMessage | Watermark) -> None:
        if isinstance(item, Watermark):
            # A source that could not pre-count partitions announces the
            # final count here.  Finalisation still waits for every
            # partition's message, so watermarks overtaking in-flight
            # chunks (possible with cloned partial operators) are safe.
            self._expected[item.cell_id] = item.n_partitions
            if item.n_partitions == 0:
                # A declared-empty cell: no chunks will ever arrive, so
                # record an explicit empty model for it now.
                model = ClusterModel.empty(
                    int(item.payload.get("dim", 1)),
                    method=STREAM_METHOD,
                    extra={"empty_cell": True},
                )
                self._models[item.cell_id] = model
                if self._journal is not None:
                    self._journal.append_cell(item.cell_id, model)
                return
            self._maybe_finalize(item.cell_id)
            return
        if self._journal is not None:
            self._journal.append_partition(item)
        bucket = self._pending.setdefault(item.cell_id, [])
        bucket.append(item)
        if item.n_partitions:
            self._expected[item.cell_id] = item.n_partitions
        self._maybe_finalize(item.cell_id)

    def _maybe_finalize(self, cell_id: str) -> None:
        expected = self._expected.get(cell_id)
        bucket = self._pending.get(cell_id)
        if expected and bucket and len(bucket) == expected:
            self._finalize(cell_id)

    def result(self) -> dict[str, ClusterModel]:
        for cell_id in list(self._pending):
            self._finalize(cell_id)
        return dict(self._models)

    def _finalize(self, cell_id: str) -> None:
        messages = self._pending.pop(cell_id, [])
        if not messages:
            return
        model, merge_counters = merge_cell(
            messages,
            self.k,
            self.recipe,
            expected=self._expected.get(cell_id, 0),
            evaluate_on=self._evaluate_on.get(cell_id),
        )
        for message in messages:
            if message.kernel_counters:
                merge_counter_dicts(
                    self.kernel_counters.setdefault("partial", {}),
                    message.kernel_counters,
                )
        if merge_counters is not None and merge_counters.assign_calls:
            merge_counter_dicts(
                self.kernel_counters.setdefault("merge", {}),
                merge_counters.as_dict(),
            )
        if model.extra.get("incomplete"):
            # Partitions were dropped upstream (degrade policy): the loss
            # shows on the model and in the execution metrics.
            self.incomplete_cells.append(cell_id)
        self._models[cell_id] = model
        if self._journal is not None:
            self._journal.append_cell(cell_id, model)


def build_partial_merge_graph(
    cells: Mapping[str, np.ndarray],
    k: int,
    recipe: Recipe = DEFAULT_RECIPE,
    n_chunks: int | None = None,
    resources: ResourceManager | None = None,
    seed: int | None = None,
    evaluate_against_raw: bool = True,
) -> DataflowGraph:
    """Assemble the scan → partial → merge dataflow for ``cells``."""
    graph = DataflowGraph()
    source = GridCellChunkSource(
        cells, n_chunks=n_chunks, resources=resources, seed=seed
    )
    seed_sequence = np.random.SeedSequence(seed) if seed is not None else None
    partial = PartialKMeansOperator.from_recipe(k, recipe, seed_sequence)
    merge = MergeKMeansSink(
        k=k, recipe=recipe, evaluate_on=cells if evaluate_against_raw else None
    )
    graph.add(source, cost_hint=1.0)
    # The paper: partial k-means "is by far the most expensive computation".
    graph.add(partial, cost_hint=16.0)
    graph.add(merge, cost_hint=1.0)
    graph.connect("scan", "partial")
    graph.connect("partial", "merge")
    return graph


def run_partial_merge_stream(
    cells: Mapping[str, np.ndarray],
    k: int,
    restarts: int = DEFAULT_RECIPE.restarts,
    n_chunks: int | None = None,
    resources: ResourceManager | None = None,
    partial_clones: int | None = None,
    seed: int | None = None,
    max_iter: int = DEFAULT_RECIPE.max_iter,
    fault_plan: FaultPlan | None = None,
    supervision: Mapping[str, SupervisionPolicy] | None = None,
    retry_policy: RetryPolicy | None = None,
    backend: str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
) -> tuple[dict[str, ClusterModel], ExecutionResult]:
    """Cluster every grid cell with the streamed partial/merge pipeline.

    Args:
        cells: mapping from cell id to its points.
        k: centroids per cell.
        restarts: random-seed restarts per partition.
        n_chunks: fixed partitions per cell; ``None`` derives them from
            the memory budget.
        resources: resource envelope for planning (default host envelope).
        partial_clones: pin the number of partial-operator clones (the
            speed-up experiment's knob); ``None`` lets the planner decide.
        seed: RNG seed for chunking and seeding.
        max_iter: Lloyd iteration cap for all stages.
        fault_plan: optional seeded chaos engine (testing); targeted
            operators are wrapped with deterministic fault injection.
        supervision: per-logical-operator failure policies (e.g.
            ``{"partial": SupervisionPolicy.restart(1)}``); unlisted
            operators fail fast.
        retry_policy: default per-item retry policy for all transforms.
        backend: run partial-k-means clones on ``"threads"`` or
            ``"processes"`` (worker processes fed over pipes);
            ``None`` defers to the ``REPRO_STREAM_BACKEND`` environment
            variable, then ``"threads"``.  Results are bit-identical
            across backends for a fixed seed.  ``"shards"`` routes the
            whole run to the fault-tolerant shard-per-cell runtime
            (:func:`repro.stream.shard.run_sharded`) instead of the
            plan-based engine — shard runs are bit-identical to other
            shard runs with the same seed, but chunk cells with per-cell
            RNGs, so they are not bit-comparable with thread/process
            runs.
        workers: shorthand for ``partial_clones`` aimed at the process
            backend (one worker process per clone); ignored when
            ``partial_clones`` is given explicitly.
        kernel: Lloyd assignment backend for the partial and merge stages
            (see ``docs/kernels.md``); ``None`` consults the
            ``REPRO_KMEANS_KERNEL`` environment variable.  The kernels
            are bit-identical, so choosing between them never changes
            results — counters in the execution metrics show what it
            saved.

    ``restarts``, ``max_iter`` and ``kernel`` become one
    :class:`~repro.core.recipe.Recipe` (random seeding, both stages at
    ``max_iter``), which refuses a bad value before anything runs.

    Returns:
        ``(models, execution_result)`` where ``models`` maps cell id to
        its final :class:`ClusterModel`.
    """
    recipe = Recipe(
        restarts=restarts, max_iter=max_iter, merge_max_iter=max_iter, kernel=kernel
    )
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if partial_clones is None and workers is not None:
        partial_clones = workers
    envelope = resources if resources is not None else ResourceManager()
    if resolve_backend(backend) == SHARDS:
        # Lazy import: shard pulls in multiprocessing.connection and is
        # only needed on this path.
        from repro.stream.shard import ShardConfig, ShardCoordinator

        shard_config = ShardConfig(n_workers=partial_clones or 2)
        if retry_policy is not None:
            shard_config = replace(shard_config, reassign_policy=retry_policy)
        coordinator = ShardCoordinator(
            cells,
            k,
            recipe,
            n_chunks=n_chunks,
            resources=envelope,
            seed=seed,
            config=shard_config,
            fault_plan=fault_plan,
        )
        models = coordinator.run()
        return models, ExecutionResult(value=models, metrics=coordinator.metrics)
    graph = build_partial_merge_graph(
        cells, k, recipe, n_chunks=n_chunks, resources=envelope, seed=seed
    )
    for name, policy in (supervision or {}).items():
        graph.set_supervision(name, policy)
    overrides = {"partial": partial_clones} if partial_clones else None
    plan = Planner(envelope).plan(
        graph, clone_overrides=overrides, fault_plan=fault_plan, backend=backend
    )
    supervisor = Supervisor(retry_policy=retry_policy)
    outcome = Executor(supervisor=supervisor).run(plan)
    return outcome.value, outcome
