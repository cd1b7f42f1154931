"""Declarative query builder over the stream engine.

Conquest exposes clustering as a *query*: "queries are specified as a
logical operator tree, the query optimizer creates a query execution
plan including the physical operator implementations and parallelization
of the operators" (paper Section 4).  :class:`Query` is that interface:

.. code-block:: python

    from repro.stream.query import Query
    result = (
        Query.scan_buckets("/data/buckets")
        .partition_by_memory()
        .cluster(k=40, restarts=10)
        .merge(k=40)
        .explain()   # optional
        .execute()
    )

Each builder call appends a logical stage; ``execute`` compiles the
stage list into a :class:`~repro.stream.graph.DataflowGraph`, plans it
against the resource envelope and runs it.  ``explain`` prints the
logical tree and the physical plan (clone counts) without executing —
the EXPLAIN facility every query engine owes its users.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.recipe import DEFAULT_RECIPE, Recipe
from repro.stream.checkpoint import (
    CheckpointError,
    JournalState,
    JournalWriter,
    RecoveryManager,
    bucket_inventory,
)
from repro.stream.coreset import CoresetTreeSink, PrefixQuery
from repro.stream.executor import ExecutionResult, Executor
from repro.stream.faults import FaultPlan
from repro.stream.file_source import FAIL, BucketFileSource
from repro.stream.graph import DataflowGraph
from repro.stream.kmeans_ops import (
    GridCellChunkSource,
    MergeKMeansSink,
    PartialKMeansOperator,
)
from repro.stream.metrics import (
    CheckpointStats,
    ExecutionMetrics,
    OperatorMetrics,
)
from repro.stream.mp import SHARDS, validate_backend
from repro.stream.planner import Planner
from repro.stream.scheduler import ResourceManager
from repro.stream.supervision import RetryPolicy, SupervisionPolicy, Supervisor

__all__ = ["QueryError", "QueryResult", "Query"]


class QueryError(Exception):
    """The query is structurally invalid (missing or duplicated stages)."""


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one executed query.

    Attributes:
        models: final cluster model per cell id.
        execution: engine-level result (metrics, queues).
        prefix_queries: scheduled mid-stream clustering answers, in issue
            order (empty unless :meth:`Query.with_prefix_queries` was
            used).
        final_queries: each cell's prefix-query answer at end of stream
            (empty unless prefix queries were enabled).
    """

    models: dict[str, Any]
    execution: ExecutionResult
    prefix_queries: list[PrefixQuery] = field(default_factory=list)
    final_queries: dict[str, PrefixQuery] = field(default_factory=dict)


@dataclass
class _QueryState:
    """Accumulated logical stages."""

    source_kind: str | None = None
    source_args: dict[str, Any] = field(default_factory=dict)
    n_chunks: int | None = None
    by_memory: bool = False
    #: Centroids per partition; ``None`` until :meth:`Query.cluster`.
    k: int | None = None
    #: Whether :meth:`Query.merge` ran, and the k it set (``None`` = k).
    merged: bool = False
    merge_k: int | None = None
    recipe: Recipe = DEFAULT_RECIPE
    resources: ResourceManager | None = None
    partial_clones: int | None = None
    seed: int | None = None
    supervision: dict[str, SupervisionPolicy] = field(default_factory=dict)
    retry_policy: RetryPolicy | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    checkpoint_fsync: bool = True
    on_corrupt: str = FAIL
    quarantine_dir: str | None = None
    stall_timeout: float | None = None
    backend: str | None = None
    shards: int | None = None
    shard_config: Any = None
    prefix_queries: bool = False
    prefix_query_every: int | None = None
    prefix_query_window: int | None = None


class Query:
    """Immutable-ish builder for partial/merge clustering queries.

    Build with the ``scan_*`` constructors, chain stage methods, finish
    with :meth:`execute`.  Stages may appear once each; ``cluster`` and a
    source are mandatory, ``merge`` defaults to the cluster stage's k.
    """

    def __init__(self, state: _QueryState) -> None:
        self._state = state

    # -- constructors --------------------------------------------------------

    @staticmethod
    def scan_cells(cells: Mapping[str, np.ndarray]) -> "Query":
        """Start from in-memory cells (mapping cell id -> points)."""
        if not cells:
            raise QueryError("scan_cells requires a non-empty mapping")
        state = _QueryState(source_kind="cells", source_args={"cells": dict(cells)})
        return Query(state)

    @staticmethod
    def scan_buckets(directory: str) -> "Query":
        """Start from a directory of ``.gbk`` bucket files."""
        state = _QueryState(
            source_kind="buckets", source_args={"directory": directory}
        )
        return Query(state)

    # -- stages ----------------------------------------------------------------

    def partition(self, n_chunks: int) -> "Query":
        """Split every cell into a fixed number of chunks."""
        if n_chunks < 1:
            raise QueryError(f"n_chunks must be >= 1, got {n_chunks}")
        if self._state.n_chunks is not None or self._state.by_memory:
            raise QueryError("partitioning specified twice")
        self._state.n_chunks = n_chunks
        return self

    def partition_by_memory(self) -> "Query":
        """Derive chunk counts from the resource envelope's memory budget."""
        if self._state.n_chunks is not None or self._state.by_memory:
            raise QueryError("partitioning specified twice")
        self._state.by_memory = True
        return self

    def cluster(
        self,
        k: int,
        restarts: int = DEFAULT_RECIPE.restarts,
        seeding: str = DEFAULT_RECIPE.seeding,
        max_iter: int = DEFAULT_RECIPE.max_iter,
    ) -> "Query":
        """Add the partial k-means stage.

        Without :meth:`merge` the merge runs at this stage's ``max_iter``
        too.  A bad ``restarts``, ``seeding`` or ``max_iter`` raises
        ``ValueError`` here.
        """
        state = self._state
        if state.k is not None:
            raise QueryError("cluster stage specified twice")
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        state.recipe = replace(
            state.recipe,
            restarts=restarts,
            seeding=seeding,
            max_iter=max_iter,
            merge_max_iter=(
                state.recipe.merge_max_iter if state.merged else max_iter
            ),
        )
        state.k = k
        return self

    def merge(
        self,
        k: int | None = None,
        max_iter: int = DEFAULT_RECIPE.merge_max_iter,
    ) -> "Query":
        """Add the merge stage (defaults to the cluster stage's k).

        ``max_iter`` caps every merge on every backend; a value below 1
        raises ``ValueError`` here.
        """
        state = self._state
        if state.merged:
            raise QueryError("merge stage specified twice")
        state.recipe = replace(state.recipe, merge_max_iter=max_iter)
        state.merged = True
        state.merge_k = k
        return self

    def with_resources(self, resources: ResourceManager) -> "Query":
        """Set the resource envelope (memory budget, worker slots)."""
        self._state.resources = resources
        return self

    def with_partial_clones(self, clones: int) -> "Query":
        """Pin the number of partial-operator clones."""
        if clones < 1:
            raise QueryError(f"clones must be >= 1, got {clones}")
        self._state.partial_clones = clones
        return self

    def with_seed(self, seed: int) -> "Query":
        """Make chunking and seeding deterministic."""
        self._state.seed = seed
        return self

    def with_backend(self, backend: str, workers: int | None = None) -> "Query":
        """Choose the execution backend for the partial stage.

        Args:
            backend: ``"threads"`` (default engine behaviour) or
                ``"processes"`` — partial clones run in worker processes
                fed over pipes.  For a fixed seed the results are
                bit-identical across backends.
            workers: shorthand for :meth:`with_partial_clones` (one
                worker process per clone).
        """
        validated = validate_backend(backend)
        if validated == SHARDS:
            raise QueryError(
                "the 'shards' backend is not plan-based; use "
                "Query.with_shards(n) instead of with_backend('shards')"
            )
        if self._state.shards is not None:
            raise QueryError("with_backend conflicts with with_shards(); set one")
        self._state.backend = validated
        if workers is not None:
            if self._state.partial_clones is not None:
                raise QueryError(
                    "workers conflicts with with_partial_clones(); set one"
                )
            if workers < 1:
                raise QueryError(f"workers must be >= 1, got {workers}")
            self._state.partial_clones = workers
        return self

    def with_shards(self, shards: int, config: Any = None) -> "Query":
        """Run the query on the fault-tolerant shard-per-cell runtime.

        Instead of compiling a plan, :meth:`execute` hands the cells and
        the query's recipe to a
        :class:`~repro.stream.shard.ShardCoordinator`: ``shards`` worker
        processes each own a subset of the cells, journal their progress
        and survive worker loss (crash, silence, stall) with
        bit-identical recovery.  See :mod:`repro.stream.shard`.

        Shard runs are bit-identical to other shard runs with the same
        seed (regardless of ``shards`` or injected worker faults), but
        chunk cells with per-cell RNGs, so they are not bit-comparable
        with thread/process runs.

        Args:
            shards: worker processes to spawn.
            config: optional :class:`~repro.stream.shard.ShardConfig`
                carrying the remaining tuning (transport, heartbeats,
                reassignment budget); its ``n_workers`` is overridden by
                ``shards``.

        Raises:
            QueryError: if ``shards < 1`` or a backend was already set.
        """
        if shards < 1:
            raise QueryError(f"shards must be >= 1, got {shards}")
        if self._state.backend is not None:
            raise QueryError("with_shards conflicts with with_backend(); set one")
        self._state.shards = shards
        self._state.shard_config = config
        return self

    def with_kernel(self, kernel: str) -> "Query":
        """Choose the Lloyd assignment kernel for all k-means stages.

        Args:
            kernel: a name from ``docs/kernels.md``.  The kernels are
                bit-identical in every output, so choosing between them
                is a pure performance knob — which is also why the
                checkpoint manifest does not record it: a journaled run
                may resume under the other kernel and still produce the
                same bits.
        """
        try:
            self._state.recipe = replace(self._state.recipe, kernel=kernel)
        except ValueError as error:
            raise QueryError(str(error)) from None
        return self

    def with_prefix_queries(
        self, every: int | None = None, window: int | None = None
    ) -> "Query":
        """Maintain a coreset tree per cell for mid-stream clustering.

        Swaps the merge sink for a
        :class:`~repro.stream.coreset.CoresetTreeSink`: final models stay
        bit-identical (the tree rides alongside the exact one-shot
        merge), but the run additionally answers "what do the clusters
        look like right now?" in milliseconds from cached prefix merges.

        Args:
            every: issue (and log) a prefix query each time a cell's
                contiguous partition prefix crosses a multiple of this
                many partitions; ``None`` builds the tree without
                scheduled queries (``QueryResult.final_queries`` is still
                filled).
            window: when set, scheduled queries cluster only the last
                this-many chunks ("sliding window") instead of the whole
                prefix.
        """
        if every is not None and every < 1:
            raise QueryError(f"every must be >= 1, got {every}")
        if window is not None and window < 1:
            raise QueryError(f"window must be >= 1, got {window}")
        self._state.prefix_queries = True
        self._state.prefix_query_every = every
        self._state.prefix_query_window = window
        return self

    def with_supervision(
        self,
        policies: Mapping[str, SupervisionPolicy] | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "Query":
        """Attach failure-handling policies to the query's operators.

        Args:
            policies: mapping from logical operator name (``"partial"``)
                to a :class:`SupervisionPolicy`; unlisted operators stay
                fail-fast.
            retry_policy: default per-item :class:`RetryPolicy` for every
                transform in the plan.
        """
        if policies:
            self._state.supervision.update(policies)
        if retry_policy is not None:
            self._state.retry_policy = retry_policy
        return self

    def checkpoint(
        self, run_dir: str | Path, resume: bool = False, fsync: bool = True
    ) -> "Query":
        """Journal the run into ``run_dir`` so a killed run can resume.

        Every completed partition summary and finalised cell model is
        appended (fsync'd, CRC-framed) to ``run_dir/journal.rjl``.  With
        ``resume=True`` an existing journal is validated against the
        current inputs and configuration, its completed work is replayed,
        and only unfinished partitions are recomputed — the final models
        are bit-identical to an uninterrupted run.

        Args:
            run_dir: checkpoint directory (created on demand).
            resume: continue an existing journal instead of refusing it.
            fsync: fsync every record (tests may turn this off for speed).
        """
        self._state.checkpoint_dir = str(run_dir)
        self._state.resume = resume
        self._state.checkpoint_fsync = fsync
        return self

    def on_corrupt(
        self, policy: str, quarantine_dir: str | Path | None = None
    ) -> "Query":
        """Set the corrupted-bucket policy for the bucket scan.

        Args:
            policy: ``"fail"`` (default behaviour) aborts the plan on the
                first corrupted bucket; ``"quarantine"`` moves the file
                into a ``quarantine/`` subdirectory, records the loss in
                the execution metrics and keeps scanning.
            quarantine_dir: where quarantined files go (default:
                ``<buckets>/quarantine``).
        """
        self._state.on_corrupt = policy
        if quarantine_dir is not None:
            self._state.quarantine_dir = str(quarantine_dir)
        return self

    def with_watchdog(self, stall_timeout: float) -> "Query":
        """Arm the executor's hung-operator watchdog.

        When no queue or operator makes progress for ``stall_timeout``
        seconds the run fails with
        :class:`~repro.stream.errors.OperatorStalled` and a stall
        diagnosis (thread stacks, queue depths) lands in the metrics.
        """
        if stall_timeout <= 0:
            raise QueryError(
                f"stall_timeout must be positive, got {stall_timeout}"
            )
        self._state.stall_timeout = stall_timeout
        return self

    # -- compilation ------------------------------------------------------------

    def _validate(self) -> None:
        if self._state.source_kind is None:
            raise QueryError("query has no source stage")
        if self._state.k is None:
            raise QueryError("query has no cluster stage")
        if self._state.n_chunks is None and not self._state.by_memory:
            raise QueryError(
                "query has no partitioning stage "
                "(call partition(n) or partition_by_memory())"
            )

    def _merge_k(self) -> int:
        state = self._state
        return state.merge_k if state.merge_k is not None else state.k

    def _resources(self) -> ResourceManager:
        return (
            self._state.resources
            if self._state.resources is not None
            else ResourceManager()
        )

    def _build_graph(
        self,
        journal: JournalWriter | None = None,
        skip_cells: Iterable[str] = (),
        skip_partitions: Iterable[tuple[str, int]] = (),
    ) -> DataflowGraph:
        self._validate()
        state = self._state
        resources = self._resources()
        graph = DataflowGraph()
        if state.source_kind == "cells":
            source = GridCellChunkSource(
                state.source_args["cells"],
                n_chunks=state.n_chunks,
                resources=resources if state.by_memory else None,
                seed=state.seed,
            )
            evaluate_on = state.source_args["cells"]
        else:
            source = BucketFileSource(
                state.source_args["directory"],
                resources=resources if state.by_memory else None,
                n_chunks=state.n_chunks,
                on_corrupt=state.on_corrupt,
                quarantine_dir=state.quarantine_dir,
                skip_cells=skip_cells,
                skip_partitions=skip_partitions,
                name="scan",
            )
            evaluate_on = None

        seed_sequence = (
            np.random.SeedSequence(state.seed) if state.seed is not None else None
        )
        partial = PartialKMeansOperator.from_recipe(
            state.k, state.recipe, seed_sequence
        )
        if state.prefix_queries:
            sink: MergeKMeansSink = CoresetTreeSink(
                k=self._merge_k(),
                recipe=state.recipe,
                evaluate_on=evaluate_on,
                journal=journal,
                query_every=state.prefix_query_every,
                query_window=state.prefix_query_window,
            )
        else:
            sink = MergeKMeansSink(
                k=self._merge_k(),
                recipe=state.recipe,
                evaluate_on=evaluate_on,
                journal=journal,
            )
        graph.add(source, cost_hint=1.0)
        graph.add(partial, cost_hint=16.0)
        graph.add(sink, cost_hint=1.0)
        graph.connect(source.name, "partial")
        graph.connect("partial", "merge")
        for name, policy in state.supervision.items():
            graph.set_supervision(name, policy)
        return graph

    # -- terminal operations --------------------------------------------------

    def explain(self, printer=print) -> "Query":
        """Print the logical stages and the compiled physical plan."""
        self._validate()
        state = self._state
        partition_text = (
            f"partition_by_memory(budget="
            f"{self._resources().memory_budget_bytes} B)"
            if state.by_memory
            else f"partition(n_chunks={state.n_chunks})"
        )
        printer("logical plan:")
        printer(f"  scan[{state.source_kind}]")
        printer(f"  -> {partition_text}")
        printer(
            f"  -> partial_kmeans(k={state.k}, "
            f"restarts={state.recipe.restarts}, "
            f"kernel={state.recipe.kernel or 'default'})"
        )
        printer(f"  -> merge_kmeans(k={self._merge_k()})")
        graph = self._build_graph()
        overrides = (
            {"partial": state.partial_clones} if state.partial_clones else None
        )
        plan = Planner(self._resources()).plan(graph, clone_overrides=overrides)
        printer(plan.describe())
        return self

    def execute(self, fault_plan: FaultPlan | None = None) -> QueryResult:
        """Compile, plan and run the query.

        Args:
            fault_plan: optional seeded chaos engine; targeted operators
                are wrapped with deterministic fault injection (tests).

        Returns:
            A :class:`QueryResult` with per-cell models and metrics.
        """
        self._validate()
        if self._state.shards is not None:
            return self._shard_execute(fault_plan)
        if self._state.checkpoint_dir is not None:
            return self._checkpointed_execute(fault_plan)
        graph = self._build_graph()
        outcome = self._run_plan(graph, fault_plan)
        return self._to_result(graph, outcome)

    def _shard_execute(self, fault_plan: FaultPlan | None) -> QueryResult:
        """Route the query to the shard-per-cell runtime."""
        from repro.data.gridio import read_bucket_file
        from repro.stream.shard import ShardConfig, ShardCoordinator

        state = self._state
        if state.checkpoint_dir is not None:
            raise QueryError(
                "checkpoint() is not supported with with_shards(): the "
                "shard runtime journals per cell internally"
            )
        if state.prefix_queries:
            raise QueryError(
                "with_prefix_queries() is not supported with with_shards()"
            )
        if state.source_kind == "cells":
            cells = state.source_args["cells"]
        else:
            directory = Path(state.source_args["directory"])
            paths = (
                [directory]
                if directory.is_file()
                else sorted(directory.glob("*.gbk"))
            )
            if not paths:
                raise QueryError(f"no .gbk bucket files under {directory}")
            cells = {}
            for path in paths:
                bucket = read_bucket_file(path)
                cells[bucket.cell_id.key] = bucket.points
        config = (
            state.shard_config
            if state.shard_config is not None
            else ShardConfig()
        )
        overrides: dict[str, Any] = {"n_workers": state.shards}
        if state.retry_policy is not None:
            overrides["reassign_policy"] = state.retry_policy
        if state.stall_timeout is not None:
            overrides["stall_timeout"] = state.stall_timeout
        config = replace(config, **overrides)
        coordinator = ShardCoordinator(
            cells,
            state.k,
            state.recipe,
            n_chunks=state.n_chunks,
            resources=self._resources(),
            seed=state.seed,
            merge_k=state.merge_k,
            config=config,
            fault_plan=fault_plan,
        )
        models = coordinator.run()
        execution = ExecutionResult(value=models, metrics=coordinator.metrics)
        return QueryResult(models=models, execution=execution)

    def _offline_tree_sink(self, journal_state: JournalState) -> CoresetTreeSink:
        """Rebuild per-cell coreset trees from a complete journal.

        Used when a resume finds the journaled run already finished: no
        stream runs, but the journaled partition summaries (plus the
        adopted ``tree_node`` merges) reconstruct every tree, replaying
        the scheduled query log and the final per-cell queries with the
        same bits the original run produced.
        """
        state = self._state
        sink = CoresetTreeSink(
            k=self._merge_k(),
            recipe=state.recipe,
            query_every=state.prefix_query_every,
            query_window=state.prefix_query_window,
        )
        sink.preload_tree_nodes(journal_state.tree_nodes)
        for cell_id in sorted(journal_state.partitions):
            by_partition = journal_state.partitions[cell_id]
            sink.preload_tree_messages(
                by_partition[index] for index in sorted(by_partition)
            )
        for cell_id, tree in sorted(sink.trees().items()):
            if tree.n_inserted:
                sink.final_queries[cell_id] = sink.query_now(cell_id)
        return sink

    def _to_result(
        self, graph: DataflowGraph, outcome: ExecutionResult
    ) -> QueryResult:
        """Assemble the result, lifting prefix-query logs off the sink."""
        sink = graph.operator("merge")
        if isinstance(sink, CoresetTreeSink):
            return QueryResult(
                models=outcome.value,
                execution=outcome,
                prefix_queries=list(sink.prefix_queries),
                final_queries=dict(sink.final_queries),
            )
        return QueryResult(models=outcome.value, execution=outcome)

    def _run_plan(
        self, graph: DataflowGraph, fault_plan: FaultPlan | None
    ) -> ExecutionResult:
        overrides = (
            {"partial": self._state.partial_clones}
            if self._state.partial_clones
            else None
        )
        plan = Planner(self._resources()).plan(
            graph,
            clone_overrides=overrides,
            fault_plan=fault_plan,
            stall_timeout=self._state.stall_timeout,
            backend=self._state.backend,
        )
        supervisor = Supervisor(retry_policy=self._state.retry_policy)
        return Executor(supervisor=supervisor).run(plan)

    def _manifest(self) -> dict[str, Any]:
        """JSON-safe description of the run's inputs and configuration.

        Corrupt bucket files are left out of the inventory: under the
        quarantine policy they are moved aside mid-run, so a resume must
        see the same inventory an uninterrupted run would have processed.
        The directory path itself is also omitted — the inventory
        identifies the inputs by content, not location.  The Lloyd kernel
        is deliberately not recorded either: the kernels are
        bit-identical, so resuming a journal under the other kernel is
        valid.
        """
        state = self._state
        recipe = state.recipe
        directory = Path(state.source_args["directory"])
        paths = (
            [directory] if directory.is_file() else sorted(directory.glob("*.gbk"))
        )
        inventory = [
            entry for entry in bucket_inventory(paths) if "error" not in entry
        ]
        resources = self._resources()
        return {
            "source": "buckets",
            "inventory": inventory,
            "n_chunks": state.n_chunks,
            "by_memory": state.by_memory,
            "memory_budget": (
                resources.memory_budget_bytes if state.by_memory else None
            ),
            # The recipe goes in field by field, under the keys journals
            # have always used, so journals written before it resume.
            "k": state.k,
            "restarts": recipe.restarts,
            "seeding": recipe.seeding,
            "max_iter": recipe.max_iter,
            # Journals record the stopping rule under these two keys, with
            # "None" for the paper's rule, the only one this code runs.
            # Writing that constant keeps such journals resumable, and
            # validate_manifest refuses one that recorded any other rule.
            "criterion": "None",
            "merge_k": self._merge_k(),
            "merge_max_iter": recipe.merge_max_iter,
            "merge_criterion": "None",
            "seed": state.seed,
        }

    def _checkpointed_execute(
        self, fault_plan: FaultPlan | None
    ) -> QueryResult:
        state = self._state
        if state.source_kind != "buckets":
            raise QueryError("checkpoint() requires a scan_buckets source")
        recovery = RecoveryManager(state.checkpoint_dir)
        started = time.perf_counter()
        journal_state: JournalState | None = None
        if recovery.journal_exists():
            if not state.resume:
                raise CheckpointError(
                    f"{recovery.journal_path} already exists; pass "
                    "checkpoint(..., resume=True) to continue it or use a "
                    "fresh run directory"
                )
            journal_state = recovery.load()
        resumed = journal_state is not None
        if resumed and state.seed is None:
            recorded = (journal_state.manifest or {}).get("seed")
            if recorded is not None:
                state.seed = int(recorded)
        if state.seed is None:
            # A journaled run must be reproducible: without a fixed seed
            # the recomputed partitions could never match the journaled
            # ones, so pick one now and record it in the manifest.
            state.seed = int(np.random.SeedSequence().entropy)
        manifest = self._manifest()
        if resumed:
            RecoveryManager.validate_manifest(journal_state.manifest, manifest)
        recovery_seconds = time.perf_counter() - started

        if resumed and journal_state.complete:
            # Nothing to do: the journaled run finished.  Hand back its
            # models without touching a single bucket.
            metrics = ExecutionMetrics()
            metrics.checkpoint = CheckpointStats(
                journal_path=str(recovery.journal_path),
                partitions_replayed=sum(
                    len(parts) for parts in journal_state.partitions.values()
                ),
                cells_replayed=len(journal_state.cells),
                journal_bytes=recovery.journal_path.stat().st_size,
                recovery_seconds=recovery_seconds,
                resumed=True,
            )
            models = dict(journal_state.cells)
            prefix_queries: list[PrefixQuery] = []
            final_queries: dict[str, PrefixQuery] = {}
            if state.prefix_queries:
                # The run asked for prefix queries; answer them from the
                # journal alone.  Journaled partitions rebuild each tree
                # (adopting journaled node merges), which replays the
                # scheduled log per cell and the final query per cell
                # bit-identically to the original run.
                sink = self._offline_tree_sink(journal_state)
                prefix_queries = list(sink.prefix_queries)
                final_queries = dict(sink.final_queries)
                tree_stats = sink.tree_stats
                if tree_stats:
                    # ExecutionMetrics.tree_stats aggregates over
                    # operators; give the offline replay a merge-op entry.
                    replay_op = OperatorMetrics(name="merge")
                    replay_op.tree_stats.update(tree_stats)
                    metrics.operators.append(replay_op)
            return QueryResult(
                models=models,
                execution=ExecutionResult(value=models, metrics=metrics),
                prefix_queries=prefix_queries,
                final_queries=final_queries,
            )

        skip_cells: set[str] = set()
        skip_partitions: set[tuple[str, int]] = set()
        replay_messages: list[Any] = []
        if resumed:
            skip_cells = journal_state.completed_cells()
            replay_messages = journal_state.replayable_messages()
            skip_partitions = {
                (cell, partition)
                for cell, by_partition in journal_state.partitions.items()
                if cell not in skip_cells
                for partition in by_partition
            }

        writer = recovery.open_writer(fsync=state.checkpoint_fsync)
        try:
            if not resumed:
                writer.append_manifest(manifest)
            graph = self._build_graph(
                journal=writer,
                skip_cells=skip_cells,
                skip_partitions=skip_partitions,
            )
            sink = graph.operator("merge")
            assert isinstance(sink, MergeKMeansSink)
            if resumed:
                if isinstance(sink, CoresetTreeSink):
                    # Adopt journaled tree merges first so the replayed
                    # partitions rebuild every tree without recomputing
                    # the internal merges.
                    sink.preload_tree_nodes(journal_state.tree_nodes)
                for cell_id, model in journal_state.cells.items():
                    sink.preload_model(cell_id, model)
                if isinstance(sink, CoresetTreeSink):
                    # Cells with a journaled final model are excluded from
                    # replayable_messages(), but their trees must still
                    # exist for prefix queries: rebuild them from the
                    # journaled partitions (tree only — the merge state
                    # already adopted the final models above).  Cells that
                    # merely have every partition journaled arrive via the
                    # replay below instead.
                    for cell_id in sorted(journal_state.cells):
                        by_partition = journal_state.partitions.get(cell_id)
                        if by_partition:
                            sink.preload_tree_messages(
                                by_partition[index]
                                for index in sorted(by_partition)
                            )
                sink.preload(replay_messages)
            outcome = self._run_plan(graph, fault_plan)
            writer.append_complete()
            outcome.metrics.checkpoint = CheckpointStats(
                journal_path=str(recovery.journal_path),
                partitions_replayed=len(replay_messages),
                partitions_recomputed=writer.partition_records,
                cells_replayed=len(journal_state.cells) if resumed else 0,
                journal_bytes=writer.bytes_written(),
                recovery_seconds=recovery_seconds,
                resumed=resumed,
            )
        finally:
            writer.close()
        return self._to_result(graph, outcome)
