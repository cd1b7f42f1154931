"""Fault-tolerant shard-per-cell coordinator/worker runtime.

The paper's deployment story is a shared-nothing cluster: partial k-means
runs *near the data* and only tiny weighted-centroid summaries travel.
:mod:`repro.stream.distributed` simulates that deployment; this module is
the real runtime.  A coordinator partitions the grid **by cell** across
worker processes, each worker runs the plan engine's partial/merge
pipeline for its cells — the same
:class:`~repro.stream.kmeans_ops.PartialKMeansOperator` and
:func:`~repro.stream.kmeans_ops.merge_cell` — against its own ``.rjl``
journal (:mod:`repro.stream.checkpoint`), and liveness flows back over
heartbeat messages.  Each worker has at most one cell assignment in
flight; the rest wait in a per-worker queue on the coordinator, so a
worker that stops reading can never block the coordinator's sends.

Failure model
-------------

The coordinator declares a worker lost for one of three reasons:

* ``dead-pid`` — the worker process exited (its pipe hit EOF or its
  process sentinel fired),
* ``missed-heartbeats`` — no heartbeat arrived within
  ``heartbeat_timeout`` (a wedged or partitioned worker),
* ``stalled`` — heartbeats arrive but the worker's progress counter has
  been flat for ``stall_timeout`` (watchdog escalation: alive but stuck).

Recovery reassigns the lost worker's unfinished cells to the surviving
worker with the fewest pending cells (spawning a replacement when nobody
survives and ``respawn`` is on).  The new owner *replays* every prior
epoch's journal for the cell — completed partition summaries are adopted
bit-for-bit (the journal stores little-endian float64 bytes) and only the
missing partitions are recomputed.  Because each partition's RNG is a
pure function of ``(seed, cell_id, partition)``
(:func:`~repro.stream.kmeans_ops.chunk_rng`), the final
per-cell models are **bit-identical to a fault-free shard run** no matter
which worker finishes the cell or how many times it moved.

Reassignment attempts per cell are bounded by a
:class:`~repro.stream.supervision.RetryPolicy`; a cell that exhausts its
budget enters the degrade tier: the coordinator salvages whatever
partitions the journals hold, merges them into a model carrying the
standard ``incomplete`` extras (the
:class:`~repro.stream.kmeans_ops.MergeKMeansSink` contract), and the run
completes with the loss visible in the metrics instead of failing.

Chunking note: a shard worker derives one chunk-assignment RNG *per cell*
from ``(seed, cell_id)`` (``chunk_rng`` at a sentinel slot), so a cell's
random partition split is identical
on any worker.  The plan-based backends instead thread one RNG across
cells in scan order, so shard runs are bit-comparable with other shard
runs (same seed), not with thread/process runs.

Transport is ``"pipe"`` (default, :func:`multiprocessing.Pipe`) or
``"tcp"`` (:class:`multiprocessing.connection.Listener` on loopback, with
an authkey) — the protocol is identical, so multi-host deployment is a
config change, not a rewrite.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.model import ClusterModel
from repro.core.pipeline import split_into_chunks
from repro.core.recipe import SHARD_RECIPE, Recipe
from repro.stream.checkpoint import (
    JournalFormatError,
    JournalWriter,
    read_journal,
)
from repro.stream.errors import ShardError, ShardWorkerLost
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.items import CentroidMessage, DataChunk
from repro.stream.kmeans_ops import (
    PartialKMeansOperator,
    PartialKMeansSpec,
    cell_digest,
    chunk_rng,
    coerce_cell_points,
    merge_cell,
)
from repro.stream.metrics import (
    ExecutionMetrics,
    OperatorMetrics,
    RecoveryEvent,
    ShardWorkerStats,
)
from repro.stream.mp import SHARDS, default_mp_context
from repro.stream.scheduler import ResourceManager
from repro.stream.supervision import RetryPolicy

__all__ = [
    "ShardConfig",
    "CellTask",
    "ShardCoordinator",
    "run_sharded",
    "cell_journal_path",
    "SHARD_METHOD",
]

#: ``ClusterModel.method`` recorded by shard runs.
SHARD_METHOD = "partial/merge[shard]"

#: :func:`chunk_rng` slot of the per-cell chunk-assignment RNG.  Partition
#: RNGs use the partition index in the same slot; real partition counts
#: never reach 2**32 - 1, so the streams cannot collide.
_CHUNK_RNG_SENTINEL = 2**32 - 1

#: How long the coordinator waits for a worker to exit after ``stop``.
_SHUTDOWN_GRACE = 2.0


def cell_journal_path(run_dir: str | Path, cell_id: str, epoch: int) -> Path:
    """Journal file for one ``(cell, epoch)`` shard assignment.

    Each assignment epoch writes a *fresh* file: a deposed (possibly
    zombie) owner can never interleave appends with the new owner, and a
    torn tail left by a mid-write kill stays confined to its epoch.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", cell_id)
    tag = cell_digest(cell_id)[:4].hex()
    return Path(run_dir) / "cells" / f"{safe}-{tag}.e{epoch}.rjl"


@dataclass(frozen=True)
class ShardConfig:
    """Tuning for the shard runtime.

    Attributes:
        n_workers: worker processes to spawn.
        transport: ``"pipe"`` (default) or ``"tcp"`` (loopback socket via
            :class:`multiprocessing.connection.Listener`; the multi-host
            deployment path).
        heartbeat_interval: seconds between worker heartbeats.
        heartbeat_timeout: silence longer than this declares the worker
            lost (``missed-heartbeats``).
        stall_timeout: heartbeats flowing but zero progress for this long
            escalates to ``stalled``; ``None`` disables the escalation.
        reassign_policy: bounds reassignment attempts per cell
            (``1 + max_retries`` total assignments) and shapes the
            backoff before each reassignment (:meth:`RetryPolicy.
            delay_before`).
        respawn: spawn a replacement worker when a loss leaves no
            survivor (replacements never receive fault specs — a killed
            worker's injection budget is considered spent).
        fsync: fsync every journal record.  Off by default: the shard
            failure model is worker *process* death, which the page cache
            survives; turn on to also survive host power loss.
        run_dir: where per-cell journals live; ``None`` uses a temporary
            directory removed when the run finishes.
    """

    n_workers: int = 2
    transport: str = "pipe"
    heartbeat_interval: float = 0.1
    heartbeat_timeout: float = 1.0
    stall_timeout: float | None = 30.0
    reassign_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=2)
    )
    respawn: bool = True
    fsync: bool = False
    run_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.transport not in ("pipe", "tcp"):
            raise ValueError(
                f"unknown transport {self.transport!r}; use 'pipe' or 'tcp'"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive when given")


@dataclass(frozen=True)
class CellTask:
    """One cell assignment shipped to a worker.

    Everything a worker needs to produce the cell's final model without
    talking to anyone: the points, the partial k-means spec (which
    carries the seed material and the run's
    :class:`~repro.core.recipe.Recipe`, merge cap included), its own
    epoch journal path and the prior epochs to replay.
    """

    cell_id: str
    epoch: int
    points: np.ndarray
    n_chunks: int
    merge_k: int
    partial: PartialKMeansSpec
    journal_path: str
    prior_journals: tuple[str, ...]
    fsync: bool


def _merge_cell_messages(
    messages: Iterable[CentroidMessage],
    partial: PartialKMeansSpec,
    merge_k: int,
    expected: int,
    points: np.ndarray,
) -> ClusterModel:
    """:func:`merge_cell` with the shard run's recipe and label."""
    model, _ = merge_cell(
        messages,
        merge_k,
        partial.recipe,
        expected=expected,
        evaluate_on=points,
        method=SHARD_METHOD,
    )
    return model


def _read_journals(
    cell_id: str, paths: Iterable[str | Path]
) -> tuple[dict[int, CentroidMessage], ClusterModel | None, int]:
    """Union one cell's completed partitions (and any final model).

    Returns ``(partitions, model, records)``: the first copy of each
    partition across ``paths``, the first journaled final model, and the
    number of records read.  Torn tails (a mid-write kill's signature)
    are tolerated by :func:`read_journal`; missing or unreadable files
    are skipped — replay is an optimisation, correctness comes from
    recomputation.
    """
    partitions: dict[int, CentroidMessage] = {}
    model: ClusterModel | None = None
    records = 0
    for path in paths:
        try:
            state = read_journal(path)
        except (JournalFormatError, OSError):  # missing, unreadable
            continue
        records += state.records
        for index, message in state.partitions.get(cell_id, {}).items():
            partitions.setdefault(index, message)
        if model is None and cell_id in state.cells:
            model = state.cells[cell_id]
    return partitions, model, records


# -- worker side ------------------------------------------------------------


class _WorkerChaos:
    """Fires a worker's ``kill``/``heartbeat-drop`` specs, item = partition.

    The decision is :meth:`FaultPlan.should_inject` on the worker's own
    copy of the plan, with each spec's original index, so a spec fires
    at exactly the same partition no matter how the run is scheduled.
    Budgets are tracked in that copy — a killed worker cannot phone home.
    """

    def __init__(
        self, plan: FaultPlan, target: str, go_silent: Callable[[], None]
    ) -> None:
        self._plan = plan
        self._specs = plan.shard_specs(target)
        self._target = target
        self._go_silent = go_silent
        self._counter = 0

    def on_partition(self) -> None:
        """Called once per partition the worker handles (its item unit)."""
        index = self._counter
        self._counter += 1
        for spec_index, spec in self._specs:
            if not self._plan.should_inject(
                spec_index, spec, self._target, index
            ):
                continue
            if spec.kind == "heartbeat-drop":
                self._go_silent()
            else:  # kill
                os.kill(os.getpid(), signal.SIGKILL)


def _run_cell_task(
    task: CellTask, progress: list[int], chaos: _WorkerChaos
) -> tuple[ClusterModel, dict[str, Any]]:
    """Execute one cell's partial/merge pipeline, journaling as we go."""
    points = task.points  # already coerced by the coordinator
    info: dict[str, Any] = {
        "partitions_computed": 0,
        "partitions_replayed": 0,
        "replayed_records": 0,
    }
    if points.shape[0] == 0:
        model = ClusterModel.empty(
            points.shape[1], method=SHARD_METHOD, extra={"empty_cell": True}
        )
        with JournalWriter(task.journal_path, fsync=task.fsync) as writer:
            writer.append_cell(task.cell_id, model)
        return model, info

    replayed, prior_model, records = _read_journals(
        task.cell_id, task.prior_journals
    )
    info["replayed_records"] = records
    if prior_model is not None:
        # A previous owner already finalised the cell (it died between
        # journaling the model and reporting it).  Adopt the bits.
        with JournalWriter(task.journal_path, fsync=task.fsync) as writer:
            writer.append_cell(task.cell_id, prior_model)
        return prior_model, info

    partial = task.partial.build()
    chunks = split_into_chunks(
        points,
        min(task.n_chunks, points.shape[0]),
        chunk_rng(partial.seed_sequence, task.cell_id, _CHUNK_RNG_SENTINEL),
    )
    messages: list[CentroidMessage] = []
    with JournalWriter(task.journal_path, fsync=task.fsync) as writer:
        for index, chunk in enumerate(chunks):
            chaos.on_partition()
            message = replayed.get(index)
            if message is not None:
                info["partitions_replayed"] += 1
            else:
                (message,) = partial.process(
                    DataChunk(task.cell_id, index, chunk, len(chunks))
                )
                info["partitions_computed"] += 1
            writer.append_partition(message)
            messages.append(message)
            progress[0] += 1

        model = _merge_cell_messages(
            messages, task.partial, task.merge_k, len(chunks), points
        )
        writer.append_cell(task.cell_id, model)
    return model, info


def _shard_worker_main(
    name: str,
    transport: str,
    endpoint: Any,
    authkey: bytes | None,
    heartbeat_interval: float,
    fault_specs: tuple[FaultSpec, ...],
    fault_seed: int,
) -> None:
    """Worker process entry point: connect, heartbeat, serve cell tasks."""
    coordinator_pid = os.getppid()
    if transport == "tcp":
        conn = connection.Client(endpoint, authkey=authkey)
    else:
        conn = endpoint
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        # A coordinator that died mid-run makes sends fail; the worker
        # just exits, there is nobody left to report to.
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, EOFError, OSError):
                os._exit(0)

    drop_heartbeats = threading.Event()
    stop_heartbeats = threading.Event()
    progress = [0]

    def go_silent() -> None:
        """``heartbeat-drop``: no beats and no progress until fenced.

        The fault modelled is a wedged or partitioned worker, so the task
        thread parks here until the coordinator's SIGKILL — the outcome
        is then decided by the seeded plan, not by whether the host lets
        the worker finish its cells before the timeout fires.  It does
        not read its connection while parked; the coordinator never has
        a second assignment in flight to it, so nothing blocks on that.
        A worker whose coordinator is gone exits instead.
        """
        drop_heartbeats.set()
        while os.getppid() == coordinator_pid:
            time.sleep(heartbeat_interval)
        os._exit(0)

    chaos = _WorkerChaos(FaultPlan(fault_specs, fault_seed), name, go_silent)

    def heartbeat_loop() -> None:
        seq = 0
        while not stop_heartbeats.wait(heartbeat_interval):
            if drop_heartbeats.is_set():
                continue
            seq += 1
            send(("heartbeat", name, seq, progress[0]))

    send(("hello", name, os.getpid()))
    beater = threading.Thread(
        target=heartbeat_loop, name=f"{name}-heartbeat", daemon=True
    )
    beater.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                send(("bye", name))
                break
            if message[0] != "assign":  # pragma: no cover - protocol guard
                continue
            task: CellTask = message[1]
            try:
                model, info = _run_cell_task(task, progress, chaos)
            except Exception:
                send(
                    (
                        "cell_failed",
                        name,
                        task.cell_id,
                        task.epoch,
                        traceback.format_exc(),
                    )
                )
            else:
                send(("cell_done", name, task.cell_id, task.epoch, model, info))
    finally:
        stop_heartbeats.set()


# -- coordinator side -------------------------------------------------------


@dataclass
class _WorkerSlot:
    """Coordinator-side state for one worker slot.

    ``pending`` holds every unfinished cell the worker owns; ``queue``
    the tasks of those not yet sent, in assignment order.  At most one
    task is in flight, so a send never waits on a busy worker.
    """

    name: str
    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    stats: ShardWorkerStats
    alive: bool = True
    last_heartbeat: float = 0.0
    last_progress: int = 0
    last_progress_change: float = 0.0
    pending: set = field(default_factory=set)
    queue: deque = field(default_factory=deque)
    in_flight: bool = False


@dataclass
class _CellState:
    """Coordinator-side state for one cell."""

    cell_id: str
    points: np.ndarray
    n_chunks: int
    epoch: int = 0
    attempts: int = 0
    model: ClusterModel | None = None
    journals: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.model is not None


class _RecoveryTracker:
    """Tracks one loss from detection until its last cell is terminal."""

    def __init__(self, worker_name: str, reason: str, detected_at: float):
        self.worker_name = worker_name
        self.reason = reason
        self.detected_at = detected_at
        self.cells: set[str] = set()
        self.cells_reassigned = 0
        self.cells_degraded = 0
        self.replayed_records = 0
        self.finished_at: float | None = None

    def cell_terminal(self, cell_id: str, now: float) -> bool:
        """Mark one tracked cell terminal; True when the event completes."""
        self.cells.discard(cell_id)
        if not self.cells and self.finished_at is None:
            self.finished_at = now
            return True
        return False

    def to_event(self) -> RecoveryEvent:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.monotonic()
        )
        return RecoveryEvent(
            worker_name=self.worker_name,
            reason=self.reason,
            cells_reassigned=self.cells_reassigned,
            cells_degraded=self.cells_degraded,
            replayed_records=self.replayed_records,
            recovery_seconds=max(0.0, end - self.detected_at),
        )


class ShardCoordinator:
    """Drives one sharded partial/merge run end to end.

    Use :func:`run_sharded` unless you need to hold the coordinator
    itself (tests do, to poke at worker state).

    Args:
        cells: mapping from cell id to its ``(n, d)`` points.
        k: centroids per partition (and per final model unless
            ``merge_k`` differs).
        recipe: the partial and merge recipe every worker runs.
        n_chunks, resources, seed, merge_k: as for :func:`run_sharded`.
        config: runtime tuning; ``None`` uses defaults.
        fault_plan: optional chaos engine; ``kill``/``heartbeat-drop``
            specs targeting worker names are shipped to the workers and
            fire deterministically (see :meth:`FaultPlan.shard_specs`).
    """

    def __init__(
        self,
        cells: Mapping[str, np.ndarray],
        k: int,
        recipe: Recipe = SHARD_RECIPE,
        n_chunks: int | None = None,
        resources: ResourceManager | None = None,
        seed: int | None = None,
        merge_k: int | None = None,
        config: ShardConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not cells:
            raise ValueError("cells mapping must not be empty")
        self._partial = PartialKMeansOperator.from_recipe(
            k, recipe, np.random.SeedSequence(seed)
        ).to_spec()
        self._merge_k = merge_k if merge_k is not None else k
        self.config = config if config is not None else ShardConfig()
        self.fault_plan = fault_plan
        self._resources = (
            resources if resources is not None else ResourceManager()
        )
        self._n_chunks = n_chunks
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if self.config.run_dir is not None:
            self._run_dir = Path(self.config.run_dir)
        else:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-")
            self._run_dir = Path(self._tempdir.name)
        self._ctx = multiprocessing.get_context(default_mp_context())
        self._listener: connection.Listener | None = None
        self._authkey = os.urandom(16)
        self._workers: dict[str, _WorkerSlot] = {}
        self._next_worker_index = 0
        self._cells: dict[str, _CellState] = {}
        for cell_id in sorted(cells):
            points = coerce_cell_points(cells[cell_id])
            self._cells[cell_id] = _CellState(
                cell_id=cell_id,
                points=points,
                n_chunks=self._chunks_for(points),
            )
        self._trackers: list[_RecoveryTracker] = []
        self.metrics = ExecutionMetrics(backend=SHARDS)
        self._coordinator_op = OperatorMetrics(name="coordinator")
        self.metrics.operators.append(self._coordinator_op)

    def _chunks_for(self, points: np.ndarray) -> int:
        if points.shape[0] == 0:
            return 0
        if self._n_chunks is not None:
            return min(self._n_chunks, points.shape[0])
        return min(
            self._resources.partitions_for(points.shape[0], points.shape[1]),
            points.shape[0],
        )

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self, with_faults: bool = True) -> _WorkerSlot:
        name = f"worker#{self._next_worker_index}"
        self._next_worker_index += 1
        # The whole spec list travels, so the worker's FaultPlan copy
        # decides with the original spec indices.
        plan = self.fault_plan if with_faults else None
        fault_specs = plan.specs if plan is not None else ()
        fault_seed = plan.seed if plan is not None else 0
        if self.config.transport == "tcp":
            if self._listener is None:
                self._listener = connection.Listener(
                    ("127.0.0.1", 0), authkey=self._authkey
                )
            endpoint = self._listener.address
        else:
            parent_conn, endpoint = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                name,
                self.config.transport,
                endpoint,
                self._authkey if self.config.transport == "tcp" else None,
                self.config.heartbeat_interval,
                fault_specs,
                fault_seed,
            ),
            name=f"repro-shard-{name}",
            daemon=True,
        )
        process.start()
        if self.config.transport == "tcp":
            conn = self._listener.accept()
        else:
            endpoint.close()  # the child's end belongs to the child
            conn = parent_conn
        now = time.monotonic()
        slot = _WorkerSlot(
            name=name,
            process=process,
            conn=conn,
            stats=ShardWorkerStats(name=name, pid=process.pid or 0),
            last_heartbeat=now,
            last_progress_change=now,
        )
        self._workers[name] = slot
        self.metrics.shards.append(slot.stats)
        return slot

    def _respawn_worker(self, dead: _WorkerSlot) -> _WorkerSlot:
        """Replace a lost worker when nobody survives to take its cells."""
        slot = self._spawn_worker(with_faults=False)
        slot.stats.respawns = dead.stats.respawns + 1
        return slot

    def _assign(self, cell: _CellState, worker: _WorkerSlot) -> None:
        cell.attempts += 1
        journal = cell_journal_path(self._run_dir, cell.cell_id, cell.epoch)
        journal.parent.mkdir(parents=True, exist_ok=True)
        task = CellTask(
            cell_id=cell.cell_id,
            epoch=cell.epoch,
            points=cell.points,
            n_chunks=cell.n_chunks,
            merge_k=self._merge_k,
            partial=self._partial,
            journal_path=str(journal),
            prior_journals=tuple(str(p) for p in cell.journals),
            fsync=self.config.fsync,
        )
        cell.journals.append(journal)
        worker.pending.add(cell.cell_id)
        worker.stats.cells_owned += 1
        worker.queue.append(task)
        self._send_next(worker)

    def _send_next(self, worker: _WorkerSlot) -> None:
        """Send the worker its next queued task unless one is in flight.

        A task can be larger than the transport's buffer, so sending to a
        worker that is not reading (busy, or wedged) would block the
        coordinator's only thread — and every liveness check with it.
        """
        if worker.in_flight or not worker.queue:
            return
        worker.in_flight = True
        try:
            worker.conn.send(("assign", worker.queue.popleft()))
        except (BrokenPipeError, OSError):
            # The worker died between spawn/selection and this send; the
            # main loop's liveness check will reassign the cell.
            pass

    # -- failure handling ---------------------------------------------------

    def _pick_survivor(self, exclude: str) -> _WorkerSlot | None:
        candidates = [
            slot
            for slot in self._workers.values()
            if slot.alive and slot.name != exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (len(s.pending), s.name))

    def _on_worker_lost(self, worker: _WorkerSlot, reason: str) -> None:
        now = time.monotonic()
        worker.alive = False
        worker.stats.lost_reason = reason
        # Fencing: a stalled-but-alive worker must not keep appending to
        # journals its cells are about to leave behind.
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=_SHUTDOWN_GRACE)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

        tracker = _RecoveryTracker(worker.name, reason, now)
        self._trackers.append(tracker)
        rng = self.config.reassign_policy.rng_for(worker.name)
        for cell_id in sorted(worker.pending):
            cell = self._cells[cell_id]
            if cell.terminal:
                continue
            budget = 1 + self.config.reassign_policy.max_retries
            if cell.attempts >= budget:
                self._degrade_cell(cell)
                tracker.cells_degraded += 1
                continue
            delay = self.config.reassign_policy.delay_before(
                cell.attempts - 1, rng
            )
            if delay > 0:
                time.sleep(delay)
            cell.epoch += 1
            survivor = self._pick_survivor(exclude=worker.name)
            if survivor is None:
                if not self.config.respawn:
                    raise ShardError(
                        f"{ShardWorkerLost(worker.name, reason)}; no "
                        "surviving worker to reassign to and respawn is off"
                    )
                survivor = self._respawn_worker(worker)
            tracker.cells.add(cell_id)
            tracker.cells_reassigned += 1
            self._assign(cell, survivor)
        worker.pending.clear()
        worker.queue.clear()
        if not tracker.cells:
            # Nothing needed recovery (all cells were degraded or already
            # terminal): the event is complete at detection time.
            tracker.finished_at = time.monotonic()
            self.metrics.recoveries.append(tracker.to_event())

    def _degrade_cell(self, cell: _CellState) -> None:
        """Terminal fallback: salvage journaled partitions, mark the rest.

        The degrade tier never loses journaled work — every partition any
        epoch completed is merged in — and never lies: a model missing
        partitions carries the standard ``incomplete`` extras and the
        cell is listed in the metrics.
        """
        union, journaled, _ = _read_journals(cell.cell_id, cell.journals)
        if journaled is not None:
            # A dead owner finalised the cell before it was declared
            # lost; the journaled model is complete and exact.
            cell.model = journaled
            return
        expected = cell.n_chunks
        if union:
            cell.model = _merge_cell_messages(
                union.values(), self._partial, self._merge_k, expected, cell.points
            )
            if len(union) == expected:
                # The journals held everything: a full recovery, not a
                # degrade — don't mark the cell incomplete.
                return
        else:
            cell.model = ClusterModel.empty(
                cell.points.shape[1],
                method=SHARD_METHOD,
                extra={
                    "incomplete": True,
                    "expected_partitions": int(expected),
                    "missing_partitions": list(range(expected)),
                },
            )
        self._coordinator_op.incomplete_cells.append(cell.cell_id)

    # -- message handling ---------------------------------------------------

    def _handle_message(self, worker: _WorkerSlot, message: tuple) -> None:
        kind = message[0]
        now = time.monotonic()
        if kind == "hello":
            worker.stats.pid = int(message[2])
            worker.last_heartbeat = now
        elif kind == "heartbeat":
            worker.stats.heartbeats += 1
            worker.last_heartbeat = now
            progress = int(message[3])
            if progress != worker.last_progress:
                worker.last_progress = progress
                worker.last_progress_change = now
        elif kind == "cell_done":
            _, _, cell_id, epoch, model, info = message
            worker.last_progress_change = now
            self._task_returned(worker, cell_id, now)
            worker.stats.partitions_computed += int(
                info.get("partitions_computed", 0)
            )
            worker.stats.partitions_replayed += int(
                info.get("partitions_replayed", 0)
            )
            cell = self._cells[cell_id]
            if cell.terminal:
                return  # a stale epoch finishing late; first result wins
            cell.model = model
            worker.stats.cells_completed += 1
            self._cell_terminal(cell_id, int(info.get("replayed_records", 0)))
        elif kind == "cell_failed":
            _, _, cell_id, epoch, error_text = message
            self._task_returned(worker, cell_id, now)
            cell = self._cells[cell_id]
            if cell.terminal:
                return
            # A clean in-worker failure (bad data, bug) is handled like a
            # loss of just that cell: bounded reassignment, then degrade.
            budget = 1 + self.config.reassign_policy.max_retries
            if cell.attempts >= budget:
                self._degrade_cell(cell)
                self._cell_terminal(cell_id, 0)
                return
            cell.epoch += 1
            survivor = self._pick_survivor(exclude="")
            if survivor is None:  # pragma: no cover - all workers dead
                self._degrade_cell(cell)
                self._cell_terminal(cell_id, 0)
                return
            self._assign(cell, survivor)
        elif kind == "bye":
            worker.alive = False

    def _task_returned(
        self, worker: _WorkerSlot, cell_id: str, now: float
    ) -> None:
        """A task's reply arrived: the worker is idle, send its next one."""
        worker.last_heartbeat = now
        worker.pending.discard(cell_id)
        worker.in_flight = False
        self._send_next(worker)

    def _cell_terminal(self, cell_id: str, replayed_records: int) -> None:
        now = time.monotonic()
        for tracker in self._trackers:
            if cell_id in tracker.cells:
                tracker.replayed_records += replayed_records
                if tracker.cell_terminal(cell_id, now):
                    self.metrics.recoveries.append(tracker.to_event())

    # -- liveness -----------------------------------------------------------

    def _check_liveness(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not worker.alive:
                continue
            if not worker.process.is_alive():
                self._on_worker_lost(worker, "dead-pid")
                continue
            if now - worker.last_heartbeat > self.config.heartbeat_timeout:
                self._on_worker_lost(worker, "missed-heartbeats")
                continue
            if (
                self.config.stall_timeout is not None
                and worker.pending
                and now - worker.last_progress_change
                > self.config.stall_timeout
            ):
                self._on_worker_lost(worker, "stalled")

    # -- run ----------------------------------------------------------------

    def run(self) -> dict[str, ClusterModel]:
        """Execute the sharded run; returns final models per cell."""
        started = time.perf_counter()
        try:
            for _ in range(self.config.n_workers):
                self._spawn_worker()
            # Static initial placement: sorted cells round-robin across
            # workers, so each worker's task order (and therefore each
            # fault spec's item indices) is deterministic.
            slots = sorted(self._workers.values(), key=lambda s: s.name)
            for index, cell_id in enumerate(sorted(self._cells)):
                self._assign(
                    self._cells[cell_id], slots[index % len(slots)]
                )
            self._loop()
            return {
                cell_id: state.model
                for cell_id, state in self._cells.items()
                if state.model is not None
            }
        finally:
            self._shutdown()
            self.metrics.wall_seconds = time.perf_counter() - started

    def _loop(self) -> None:
        poll = max(0.01, self.config.heartbeat_interval / 2.0)
        while any(not cell.terminal for cell in self._cells.values()):
            waitables: list[Any] = []
            by_conn: dict[Any, _WorkerSlot] = {}
            for worker in self._workers.values():
                if worker.alive:
                    waitables.append(worker.conn)
                    by_conn[worker.conn] = worker
                    waitables.append(worker.process.sentinel)
            if not waitables:
                raise ShardError(
                    "no live workers and unfinished cells remain"
                )  # pragma: no cover - losses always reassign or degrade
            ready = connection.wait(waitables, timeout=poll)
            for item in ready:
                worker = by_conn.get(item)
                if worker is None or not worker.alive:
                    continue  # a sentinel fired; liveness check handles it
                try:
                    while worker.conn.poll(0):
                        self._handle_message(worker, worker.conn.recv())
                except (EOFError, OSError):
                    self._on_worker_lost(worker, "dead-pid")
            self._check_liveness()

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in self._workers.values():
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=_SHUTDOWN_GRACE)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


def run_sharded(
    cells: Mapping[str, np.ndarray],
    k: int,
    restarts: int = SHARD_RECIPE.restarts,
    seeding: str = SHARD_RECIPE.seeding,
    n_chunks: int | None = None,
    resources: ResourceManager | None = None,
    seed: int | None = None,
    merge_k: int | None = None,
    max_iter: int = SHARD_RECIPE.max_iter,
    kernel: str | None = None,
    config: ShardConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[dict[str, ClusterModel], ExecutionMetrics]:
    """Cluster every grid cell on the shard-per-cell runtime.

    The restart-free default — one high-quality k-means|| seed set per
    partition (Bahmani et al., "Scalable K-Means++") instead of the
    paper's ``R`` random restarts — is what makes the shard economics
    work: each cell is clustered exactly once, near its data.  Pass
    ``seeding="random", restarts=R`` to reproduce the paper's behaviour
    inside shards instead.

    Args:
        cells: mapping from cell id to its points.
        k: centroids per partition.
        restarts: seed-set restarts per partition (default 1 — see above).
        seeding: seed strategy for the partial stage.
        n_chunks: fixed partitions per cell; ``None`` derives them from
            the memory budget.
        resources: resource envelope (default host envelope).
        seed: RNG seed; shard runs with the same seed are bit-identical
            to each other regardless of worker count, schedule or
            injected worker faults.
        merge_k: centroids per final model (defaults to ``k``).
        max_iter: Lloyd iteration cap for all stages.
        kernel: Lloyd assignment backend for all stages.
        config: runtime tuning (worker count, transport, heartbeats,
            reassignment budget, journal placement).
        fault_plan: optional chaos engine; ``kill`` / ``heartbeat-drop``
            specs targeting worker names fire inside the workers.

    ``restarts``, ``seeding``, ``max_iter`` and ``kernel`` become one
    :class:`~repro.core.recipe.Recipe` (both stages at ``max_iter``),
    which refuses a bad value before any worker starts.

    Returns:
        ``(models, metrics)`` — final model per cell, plus
        :class:`ExecutionMetrics` with per-shard stats and recovery
        events.
    """
    recipe = Recipe(restarts, seeding, max_iter, max_iter, kernel)
    coordinator = ShardCoordinator(
        cells,
        k,
        recipe,
        n_chunks=n_chunks,
        resources=resources,
        seed=seed,
        merge_k=merge_k,
        config=config,
        fault_plan=fault_plan,
    )
    models = coordinator.run()
    return models, coordinator.metrics
