"""Conquest-style data-stream engine.

The substrate the paper's prototype ran on: pipelined operators connected
by bounded smart queues, compiled from a logical dataflow graph into a
physical plan whose parallelizable operators are cloned according to the
available resources.

Public surface:

* :class:`~repro.stream.graph.DataflowGraph` — logical queries.
* :class:`~repro.stream.planner.Planner` /
  :class:`~repro.stream.executor.Executor` — compile and run.
* :class:`~repro.stream.scheduler.ResourceManager` — memory/worker envelope.
* :mod:`~repro.stream.kmeans_ops` — the paper's partial/merge operators.
"""

from repro.stream.checkpoint import (
    CheckpointError,
    JournalFormatError,
    JournalState,
    JournalWriter,
    ManifestMismatchError,
    RecoveryManager,
    read_journal,
)
from repro.stream.coreset import (
    CoresetNode,
    CoresetTree,
    CoresetTreeError,
    CoresetTreeSink,
    PrefixQuery,
)
from repro.stream.distributed import (
    ClusterSpec,
    DistributedSimulation,
    MachineSpec,
    NetworkSpec,
    SimEvent,
    SimReport,
    calibrate_ops_per_second,
    paper_testbed,
)
from repro.stream.errors import (
    ExecutionError,
    GraphValidationError,
    InjectedFault,
    OperatorError,
    OperatorStalled,
    OperatorTimeout,
    QueueClosedError,
    QueueTimeout,
    ShardError,
    ShardWorkerLost,
    StreamError,
    WorkerCrashed,
)
from repro.stream.executor import ExecutionResult, Executor
from repro.stream.faults import FaultPlan, FaultSpec, InjectionEvent
from repro.stream.file_source import BucketFileSource
from repro.stream.graph import DataflowGraph
from repro.stream.items import CentroidMessage, DataChunk, ModelMessage, Watermark
from repro.stream.kmeans_ops import (
    GridCellChunkSource,
    MergeKMeansSink,
    PartialKMeansOperator,
    PartialKMeansSpec,
    build_partial_merge_graph,
    run_partial_merge_stream,
)
from repro.stream.metrics import (
    CheckpointStats,
    ExecutionMetrics,
    OperatorMetrics,
    RecoveryEvent,
    ShardWorkerStats,
    StallEvent,
    WorkerProcessStats,
)
from repro.stream.mp import (
    PROCESSES,
    SHARDS,
    THREADS,
    OperatorSpec,
    resolve_backend,
    start_worker,
    validate_backend,
)
from repro.stream.operators import FunctionTransform, Operator, Sink, Source, Transform
from repro.stream.planner import PhysicalOperator, PhysicalPlan, Planner
from repro.stream.query import Query, QueryError, QueryResult
from repro.stream.shard import CellTask, ShardConfig, ShardCoordinator, run_sharded
from repro.stream.queues import END_OF_STREAM, QueueStats, SmartQueue
from repro.stream.supervision import (
    RetryPolicy,
    SupervisionPolicy,
    Supervisor,
)
from repro.stream.tracing import dump_metrics_json, metrics_to_dict, render_gantt
from repro.stream.scheduler import DEFAULT_MEMORY_BUDGET, ResourceManager

__all__ = [
    "ClusterSpec",
    "DistributedSimulation",
    "MachineSpec",
    "NetworkSpec",
    "SimEvent",
    "SimReport",
    "calibrate_ops_per_second",
    "paper_testbed",
    "StreamError",
    "GraphValidationError",
    "QueueClosedError",
    "QueueTimeout",
    "WorkerCrashed",
    "OperatorError",
    "ExecutionError",
    "InjectedFault",
    "OperatorTimeout",
    "OperatorStalled",
    "ShardError",
    "ShardWorkerLost",
    "CheckpointError",
    "JournalFormatError",
    "JournalState",
    "JournalWriter",
    "ManifestMismatchError",
    "RecoveryManager",
    "read_journal",
    "ExecutionResult",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "InjectionEvent",
    "RetryPolicy",
    "SupervisionPolicy",
    "Supervisor",
    "BucketFileSource",
    "DataflowGraph",
    "CentroidMessage",
    "DataChunk",
    "ModelMessage",
    "Watermark",
    "CoresetNode",
    "CoresetTree",
    "CoresetTreeError",
    "CoresetTreeSink",
    "PrefixQuery",
    "GridCellChunkSource",
    "MergeKMeansSink",
    "PartialKMeansOperator",
    "PartialKMeansSpec",
    "build_partial_merge_graph",
    "run_partial_merge_stream",
    "ExecutionMetrics",
    "OperatorMetrics",
    "CheckpointStats",
    "RecoveryEvent",
    "ShardWorkerStats",
    "StallEvent",
    "WorkerProcessStats",
    "PROCESSES",
    "SHARDS",
    "THREADS",
    "OperatorSpec",
    "resolve_backend",
    "start_worker",
    "validate_backend",
    "FunctionTransform",
    "Operator",
    "Sink",
    "Source",
    "Transform",
    "PhysicalOperator",
    "PhysicalPlan",
    "Planner",
    "Query",
    "QueryError",
    "QueryResult",
    "CellTask",
    "ShardConfig",
    "ShardCoordinator",
    "run_sharded",
    "END_OF_STREAM",
    "QueueStats",
    "SmartQueue",
    "DEFAULT_MEMORY_BUDGET",
    "ResourceManager",
    "dump_metrics_json",
    "metrics_to_dict",
    "render_gantt",
]
