"""Per-operator and per-plan instrumentation.

The planner's cloning decisions and the speed-up experiments both need to
know where time is spent; every physical operator records items in/out and
busy time into an :class:`OperatorMetrics`, and the executor aggregates
them into an :class:`ExecutionMetrics` alongside queue statistics.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.kernels import merge_counter_dicts
from repro.stream.queues import QueueStats

__all__ = [
    "OperatorMetrics",
    "ExecutionMetrics",
    "StallEvent",
    "CheckpointStats",
    "WorkerProcessStats",
    "ShardWorkerStats",
    "RecoveryEvent",
    "EndpointStats",
    "ServingMetrics",
    "stopwatch",
]

#: Latency samples retained per endpoint for percentile estimates; a
#: bounded reservoir keeps a long-lived server's memory flat while the
#: percentiles track the recent (most relevant) service behaviour.
_LATENCY_WINDOW = 8192


@dataclass
class OperatorMetrics:
    """Counters for one physical operator instance.

    Attributes:
        name: physical instance name (e.g. ``"partial#2"``).
        items_in: items consumed from the input queue.
        items_out: items produced to the output queue.
        busy_seconds: time spent inside ``process``/``generate`` calls.
        started_at: perf-counter timestamp of thread start.
        finished_at: perf-counter timestamp of thread completion.
        retries: per-item retry attempts beyond the first try.
        restarts: times the supervisor replaced this instance after a
            crash (``restart`` policy).
        degraded_items: items dropped under the ``degrade`` policy.
        lost_items: human-readable labels of the dropped items (for
            :class:`~repro.stream.items.DataChunk` this is
            ``"cell/Ppartition"``), in drop order.
        quarantined_files: ``"filename: reason"`` per input file a source
            moved aside under the ``quarantine`` corruption policy.
        incomplete_cells: cell ids a sink finalised with partitions
            missing (a ``degrade`` drop upstream), in finalisation order.
        kernel_counters: Lloyd-kernel instrumentation per pipeline stage
            (``{"partial": {...}, "merge": {...}}``; see
            :class:`repro.core.kernels.KernelCounters`), copied from the
            sink when the run finishes.  Empty for operators that run no
            k-means.
        tree_stats: coreset-tree accounting (depth, node counts, merges,
            query cache hits; see
            :attr:`repro.stream.coreset.CoresetTreeSink.tree_stats`),
            copied from the sink when the run finishes.  Empty for runs
            without a tree sink.
    """

    name: str
    items_in: int = 0
    items_out: int = 0
    busy_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    retries: int = 0
    restarts: int = 0
    degraded_items: int = 0
    lost_items: list[str] = field(default_factory=list)
    quarantined_files: list[str] = field(default_factory=list)
    incomplete_cells: list[str] = field(default_factory=list)
    kernel_counters: dict = field(default_factory=dict)
    tree_stats: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        """Thread lifetime (0 until the operator finishes)."""
        if self.finished_at <= self.started_at:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def idle_seconds(self) -> float:
        """Lifetime not spent processing (queue waits, scheduling)."""
        return max(0.0, self.wall_seconds - self.busy_seconds)

    @property
    def utilization(self) -> float:
        """Fraction of lifetime spent busy, in ``[0, 1]``."""
        wall = self.wall_seconds
        if wall <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / wall)


@dataclass(frozen=True)
class StallEvent:
    """One watchdog firing: the plan made no queue progress past deadline.

    Attributes:
        waited_seconds: how long progress counters were flat before the
            watchdog fired.
        suspects: physical operator names that were alive and mid-item
            (not blocked on a queue) when the stall was diagnosed.
        policies: supervision policy mode per suspect's logical operator
            (what the stall escalated into).
        queue_depths: buffered items per queue at diagnosis time.
        thread_stacks: formatted Python stack per stream worker thread.
    """

    waited_seconds: float
    suspects: tuple[str, ...]
    policies: dict[str, str]
    queue_depths: dict[str, int]
    thread_stacks: dict[str, str]


@dataclass
class WorkerProcessStats:
    """Accounting for one partial pool worker (:mod:`repro.stream.helpers`).

    Attributes:
        name: the worker's label (``"pool#i"``).
        pid: worker process id.
        items: results the worker returned — one partition summary per
            whole partition, one Lloyd run per restart of a batch.
        partitions: whole partitions the worker ran.
        restart_batches: restart batches the worker ran.
        busy_seconds: time spent inside ``process`` calls *in the worker*
            (excludes pickling and pipe round-trips, so the gap to the
            partial operator's ``busy_seconds`` is the IPC overhead).
        spawn_seconds: time to start the process and build its operator
            from the pickled spec.
        bytes_shipped: point-array bytes sent to the worker over its pipe.
    """

    name: str
    pid: int = 0
    items: int = 0
    partitions: int = 0
    restart_batches: int = 0
    busy_seconds: float = 0.0
    spawn_seconds: float = 0.0
    bytes_shipped: int = 0


@dataclass
class ShardWorkerStats:
    """Accounting for one shard-runtime worker (:mod:`repro.stream.shard`).

    Attributes:
        name: worker name (``"worker#1"``).
        pid: last process id that served this worker slot.
        cells_owned: cells ever assigned to this worker (including ones
            later reassigned away).
        cells_completed: cells this worker finished.
        partitions_computed: partition summaries the worker computed
            (journal replays excluded).
        partitions_replayed: partition summaries the worker restored
            from prior-epoch journals instead of recomputing.
        heartbeats: heartbeat messages the coordinator received.
        respawns: times the coordinator started a fresh process for this
            worker slot after a loss.
        lost_reason: why the worker was last declared lost (``""`` if it
            never was): ``"dead-pid"``, ``"missed-heartbeats"`` or
            ``"stalled"``.
    """

    name: str
    pid: int = 0
    cells_owned: int = 0
    cells_completed: int = 0
    partitions_computed: int = 0
    partitions_replayed: int = 0
    heartbeats: int = 0
    respawns: int = 0
    lost_reason: str = ""


@dataclass(frozen=True)
class RecoveryEvent:
    """One worker loss the shard coordinator recovered from (or degraded).

    Attributes:
        worker_name: the lost worker.
        reason: ``"dead-pid"``, ``"missed-heartbeats"`` or ``"stalled"``.
        cells_reassigned: cells moved to surviving workers.
        cells_degraded: cells marked ``incomplete`` because their
            reassignment budget ran out.
        replayed_records: journal records replayed while re-running the
            reassigned cells.
        recovery_seconds: loss detection until every reassigned cell
            reached a terminal state (done or degraded).
    """

    worker_name: str
    reason: str
    cells_reassigned: int
    cells_degraded: int
    replayed_records: int
    recovery_seconds: float


@dataclass
class EndpointStats:
    """Latency/throughput counters for one serving endpoint.

    The serving layer (:mod:`repro.serve`) records one sample per
    answered request; percentiles are computed over a bounded window of
    the most recent :data:`_LATENCY_WINDOW` samples so a long-lived
    server never grows without bound.

    Attributes:
        name: endpoint name (``"assign"``, ``"summary"``, ...).
        requests: requests answered (errors included).
        items: work units processed (points assigned, chunks folded, ...).
        batches: ``(endpoint, cell)`` groups this endpoint's requests were
            served in.
        errors: requests that raised instead of answering.
        total_seconds: summed request latency (enqueue to answer).
        max_seconds: worst single-request latency observed.
    """

    name: str
    requests: int = 0
    items: int = 0
    batches: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    _recent: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )

    def record(self, seconds: float, items: int = 1) -> None:
        """Record one answered request."""
        self.requests += 1
        self.items += items
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        self._recent.append(seconds)

    def record_error(self, seconds: float) -> None:
        """Record one failed request (latency still counts)."""
        self.errors += 1
        self.record(seconds)

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over the recent window."""
        if not self._recent:
            return 0.0
        ordered = sorted(self._recent)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    @property
    def mean_seconds(self) -> float:
        """Mean request latency."""
        if not self.requests:
            return 0.0
        return self.total_seconds / self.requests

    def snapshot(self) -> dict:
        """JSON-safe summary including p50/p99 over the recent window."""
        return {
            "requests": self.requests,
            "items": self.items,
            "batches": self.batches,
            "errors": self.errors,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.percentile(50.0),
            "p99_seconds": self.percentile(99.0),
            "max_seconds": self.max_seconds,
        }


def _size_range(bound: int) -> str:
    """Group sizes counted under the power of two ``bound``: ``"1"``,
    ``"2"``, ``"3-4"``, ``"5-8"``, ..."""
    return str(bound) if bound <= 2 else f"{bound // 2 + 1}-{bound}"


class ServingMetrics:
    """Per-endpoint accounting for one long-lived serving process.

    Thread-safe: server worker threads record concurrently.  Alongside
    the per-endpoint latency counters it tracks **update lag** — the
    time from an ingest request's arrival to its fold being applied to
    the hot model — the serving layer's freshness metric — and, so that
    "did this request queue, pool or compute" is answerable from
    ``stats`` alone, the sizes of the groups requests were answered in
    plus the server's live queue depths.

    Args:
        queue_probe: returns the server's current queue depths by name
            (sampled at :meth:`snapshot` time; the server owns the
            queues, this only reports them).
    """

    def __init__(
        self, queue_probe: Callable[[], dict[str, int]] | None = None
    ) -> None:
        self.started_at = time.perf_counter()
        self.endpoints: dict[str, EndpointStats] = {}
        #: Ingest freshness: enqueue-to-model-applied latency.
        self.update_lag = EndpointStats("update-lag")
        #: Dispatched ``(endpoint, cell)`` groups by size, keyed by the
        #: power of two that bounds the size from above.
        self.batch_sizes: dict[int, int] = {}
        self._queue_probe = queue_probe
        self._lock = threading.Lock()

    def endpoint(self, name: str) -> EndpointStats:
        """The endpoint's counters (created on first use)."""
        with self._lock:
            stats = self.endpoints.get(name)
            if stats is None:
                stats = self.endpoints[name] = EndpointStats(name)
            return stats

    def record(
        self, name: str, seconds: float, items: int = 1, error: bool = False
    ) -> None:
        """Record one answered (or failed) request against an endpoint."""
        stats = self.endpoint(name)
        with self._lock:
            if error:
                stats.errors += 1
            stats.record(seconds, items=items)

    def record_batch(self, name: str, size: int) -> None:
        """Record one group of ``size`` requests dispatched for an endpoint."""
        stats = self.endpoint(name)
        bound = 1 << (size - 1).bit_length()
        with self._lock:
            stats.batches += 1
            self.batch_sizes[bound] = self.batch_sizes.get(bound, 0) + 1

    def record_update_lag(self, seconds: float, items: int = 1) -> None:
        """Record one applied ingest's enqueue-to-applied lag."""
        with self._lock:
            self.update_lag.record(seconds, items=items)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock since the metrics (i.e. the server) started."""
        return time.perf_counter() - self.started_at

    @property
    def total_requests(self) -> int:
        """Requests answered across all endpoints."""
        with self._lock:
            return sum(stats.requests for stats in self.endpoints.values())

    def qps(self) -> float:
        """Answered requests per second since the server started."""
        elapsed = self.elapsed_seconds
        if elapsed <= 0.0:
            return 0.0
        return self.total_requests / elapsed

    def snapshot(self) -> dict:
        """JSON-safe summary of every endpoint plus update lag and QPS."""
        with self._lock:
            endpoints = {
                name: stats.snapshot()
                for name, stats in sorted(self.endpoints.items())
            }
            lag = self.update_lag.snapshot()
            total = sum(stats.requests for stats in self.endpoints.values())
            batch_sizes = {
                _size_range(bound): count
                for bound, count in sorted(self.batch_sizes.items())
            }
        elapsed = self.elapsed_seconds
        return {
            "elapsed_seconds": elapsed,
            "total_requests": total,
            "qps": (total / elapsed) if elapsed > 0.0 else 0.0,
            "endpoints": endpoints,
            "update_lag": lag,
            "batch_sizes": batch_sizes,
            "queues": self._queue_probe() if self._queue_probe else {},
        }

    def summary_lines(self) -> list[str]:
        """Human-readable per-endpoint summary, for CLI output."""
        lines = [
            f"served {self.total_requests} request(s) in "
            f"{self.elapsed_seconds:.3f}s ({self.qps():.0f} qps)"
        ]
        with self._lock:
            for name in sorted(self.endpoints):
                stats = self.endpoints[name]
                lines.append(
                    f"  {name:<10} n={stats.requests:<7} "
                    f"err={stats.errors:<3} batches={stats.batches:<6} "
                    f"p50={stats.percentile(50.0) * 1e3:.2f}ms "
                    f"p99={stats.percentile(99.0) * 1e3:.2f}ms "
                    f"max={stats.max_seconds * 1e3:.2f}ms"
                )
            if self.update_lag.requests:
                lines.append(
                    f"  update-lag chunks={self.update_lag.requests} "
                    f"p50={self.update_lag.percentile(50.0) * 1e3:.2f}ms "
                    f"p99={self.update_lag.percentile(99.0) * 1e3:.2f}ms"
                )
        return lines


@dataclass
class CheckpointStats:
    """Journal/recovery accounting for one checkpointed execution.

    Attributes:
        journal_path: the run journal file.
        partitions_replayed: partition summaries restored from the
            journal instead of being recomputed.
        partitions_recomputed: partition summaries computed (and
            journaled) by this execution.
        cells_replayed: cell models adopted directly from the journal.
        journal_bytes: journal size after the run.
        recovery_seconds: time spent loading + validating the journal.
        resumed: whether this execution resumed an earlier journal.
    """

    journal_path: str = ""
    partitions_replayed: int = 0
    partitions_recomputed: int = 0
    cells_replayed: int = 0
    journal_bytes: int = 0
    recovery_seconds: float = 0.0
    resumed: bool = False


@dataclass
class ExecutionMetrics:
    """Aggregated metrics of one plan execution.

    Attributes:
        wall_seconds: end-to-end execution time.
        operators: metrics per physical operator instance.
        queues: statistics per queue, keyed by queue name.
        injected_faults: faults the attached
            :class:`~repro.stream.faults.FaultPlan` injected during the
            run (0 when no fault plan was attached).
        stalls: watchdog stall diagnoses recorded during the run.
        checkpoint: journal/recovery accounting (``None`` when the run
            was not checkpointed).
        backend: execution backend the plan ran on (``"threads"``,
            ``"processes"`` or ``"shards"``).
        pool: per-worker accounting of the run's partial pool (empty
            when none was forked).
        pool_skipped: why no pool was forked (``"one usable CPU"``,
            ``"spawn start method"``, ``"another thread alive"`` or
            ``"no partial operator"``); ``None`` when one was, and off
            the plan engine.
        shards: per-worker shard-runtime accounting (empty off the
            shard backend).
        recoveries: worker losses the shard coordinator handled.
    """

    wall_seconds: float = 0.0
    operators: list[OperatorMetrics] = field(default_factory=list)
    queues: dict[str, QueueStats] = field(default_factory=dict)
    injected_faults: int = 0
    stalls: list[StallEvent] = field(default_factory=list)
    checkpoint: CheckpointStats | None = None
    backend: str = "threads"
    pool: list[WorkerProcessStats] = field(default_factory=list)
    pool_skipped: str | None = None
    shards: list[ShardWorkerStats] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)

    @property
    def total_retries(self) -> int:
        """Per-item retries summed over all operators."""
        return sum(op.retries for op in self.operators)

    @property
    def total_restarts(self) -> int:
        """Supervisor restarts summed over all operators."""
        return sum(op.restarts for op in self.operators)

    @property
    def total_degraded(self) -> int:
        """Items dropped under ``degrade`` summed over all operators."""
        return sum(op.degraded_items for op in self.operators)

    @property
    def lost_partitions(self) -> list[str]:
        """Labels of every item dropped under ``degrade``, sorted."""
        lost: list[str] = []
        for op in self.operators:
            lost.extend(op.lost_items)
        return sorted(lost)

    @property
    def quarantined_files(self) -> list[str]:
        """Input files quarantined by sources, sorted."""
        quarantined: list[str] = []
        for op in self.operators:
            quarantined.extend(op.quarantined_files)
        return sorted(quarantined)

    @property
    def total_quarantined(self) -> int:
        """Input files quarantined across all sources."""
        return sum(len(op.quarantined_files) for op in self.operators)

    @property
    def incomplete_cells(self) -> list[str]:
        """Cells finalised with missing partitions, sorted."""
        incomplete: list[str] = []
        for op in self.operators:
            incomplete.extend(op.incomplete_cells)
        return sorted(incomplete)

    @property
    def kernel_counters(self) -> dict:
        """Kernel instrumentation merged across operators, per stage.

        Keys are pipeline stages (``"partial"``, ``"merge"``); values are
        :meth:`repro.core.kernels.KernelCounters.as_dict` payloads with
        numeric fields summed across all operators that reported them.
        """
        merged: dict[str, dict] = {}
        for op in self.operators:
            for stage, counters in op.kernel_counters.items():
                merge_counter_dicts(merged.setdefault(stage, {}), counters)
        return merged

    @property
    def tree_stats(self) -> dict:
        """Coreset-tree accounting merged across operators.

        Numeric fields sum, except ``max_depth`` which takes the maximum;
        empty when no operator maintained a coreset tree.
        """
        merged: dict = {}
        for op in self.operators:
            for key, value in op.tree_stats.items():
                if key == "max_depth":
                    merged[key] = max(merged.get(key, 0), value)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    merged[key] = merged.get(key, 0) + value
                else:
                    merged[key] = value
        return merged

    @property
    def worker_busy_seconds(self) -> float:
        """In-worker compute time summed over the pool's workers."""
        return sum(worker.busy_seconds for worker in self.pool)

    @property
    def bytes_shipped(self) -> int:
        """Point-array bytes sent to the pool's workers."""
        return sum(worker.bytes_shipped for worker in self.pool)

    @property
    def total_reassignments(self) -> int:
        """Cells moved between shard workers after a loss."""
        return sum(event.cells_reassigned for event in self.recoveries)

    @property
    def total_replayed_records(self) -> int:
        """Journal records replayed during shard recoveries."""
        return sum(event.replayed_records for event in self.recoveries)

    def busy_seconds_for(self, logical_name: str) -> float:
        """Total busy time across all clones of a logical operator."""
        prefix = f"{logical_name}#"
        return sum(
            op.busy_seconds
            for op in self.operators
            if op.name == logical_name or op.name.startswith(prefix)
        )

    def summary_lines(self) -> list[str]:
        """Human-readable per-operator summary, for CLI/example output."""
        lines = [f"total wall time: {self.wall_seconds:.3f}s"]
        for op in sorted(self.operators, key=lambda o: o.name):
            lines.append(
                f"  {op.name:<20} in={op.items_in:<6} out={op.items_out:<6} "
                f"busy={op.busy_seconds:.3f}s util={op.utilization:.0%}"
            )
        if (
            self.total_retries
            or self.total_restarts
            or self.total_degraded
            or self.injected_faults
        ):
            lines.append(
                f"  resilience: retries={self.total_retries} "
                f"restarts={self.total_restarts} "
                f"degraded={self.total_degraded} "
                f"injected_faults={self.injected_faults}"
            )
        if self.total_quarantined:
            lines.append(
                f"  quarantined: {self.total_quarantined} file(s): "
                + ", ".join(self.quarantined_files)
            )
        incomplete = self.incomplete_cells
        if incomplete:
            lines.append(
                f"  incomplete: {len(incomplete)} cell(s) finalised with "
                f"missing partitions: " + ", ".join(incomplete)
            )
        if self.pool:
            lines.append(f"  backend: {self.backend}")
        elif self.pool_skipped:
            lines.append(f"  pool: none ({self.pool_skipped})")
        for worker in sorted(self.pool, key=lambda w: w.name):
            lines.append(
                f"  pool {worker.name:<8} pid={worker.pid:<7} "
                f"partitions={worker.partitions:<5} "
                f"restart_batches={worker.restart_batches:<5} "
                f"busy={worker.busy_seconds:.3f}s "
                f"shipped={worker.bytes_shipped / 1e6:.1f}MB "
                f"spawn={worker.spawn_seconds:.3f}s"
            )
        if self.shards:
            lines.append(f"  backend: {self.backend}")
            for shard in sorted(self.shards, key=lambda s: s.name):
                lines.append(
                    f"  shard {shard.name:<14} pid={shard.pid:<7} "
                    f"cells={shard.cells_completed}/{shard.cells_owned} "
                    f"partials={shard.partitions_computed} "
                    f"replayed={shard.partitions_replayed} "
                    f"heartbeats={shard.heartbeats}"
                    + (f" lost={shard.lost_reason}" if shard.lost_reason else "")
                )
        for event in self.recoveries:
            lines.append(
                f"  recovery: {event.worker_name} ({event.reason}) "
                f"reassigned={event.cells_reassigned} "
                f"degraded={event.cells_degraded} "
                f"replayed_records={event.replayed_records} "
                f"latency={event.recovery_seconds:.3f}s"
            )
        for stage, counters in sorted(self.kernel_counters.items()):
            computed = counters.get("distance_evals_computed", 0)
            skipped = counters.get("distance_evals_skipped", 0)
            total = computed + skipped
            saved = (skipped / total) if total else 0.0
            line = (
                f"  kernel[{stage}]: {counters.get('kernel', 'dense')} "
                f"computed={computed} skipped={skipped} ({saved:.0%} saved) "
                f"assign={counters.get('assign_seconds', 0.0):.3f}s"
            )
            # elkan's group bounds, shown only when the kernel kept them.
            if counters.get("bound_groups"):
                line += f" groups={counters['bound_groups']}"
            lines.append(line)
        tree = self.tree_stats
        if tree:
            lines.append(
                f"  coreset: cells={tree.get('cells', 0)} "
                f"nodes={tree.get('nodes', 0)} "
                f"depth={tree.get('max_depth', 0)} "
                f"merges={tree.get('node_merges', 0)} "
                f"preloaded={tree.get('nodes_preloaded', 0)} "
                f"queries={tree.get('queries', 0)} "
                f"(cache_hits={tree.get('query_cache_hits', 0)}) "
                f"query_time={tree.get('query_seconds', 0.0):.3f}s"
            )
        for stall in self.stalls:
            lines.append(
                f"  stall: no progress for {stall.waited_seconds:.1f}s; "
                f"suspects={', '.join(stall.suspects) or 'unknown'}"
            )
        if self.checkpoint is not None:
            cp = self.checkpoint
            lines.append(
                f"  checkpoint: replayed={cp.partitions_replayed} "
                f"recomputed={cp.partitions_recomputed} "
                f"cells_replayed={cp.cells_replayed} "
                f"journal={cp.journal_bytes}B "
                f"recovery={cp.recovery_seconds:.3f}s"
            )
        return lines


@contextmanager
def stopwatch(metrics: OperatorMetrics):
    """Accumulate the duration of the guarded block into ``busy_seconds``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        metrics.busy_seconds += time.perf_counter() - start
