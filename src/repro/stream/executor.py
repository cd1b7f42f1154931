"""Threaded executor for physical plans.

Runs every physical operator on its own thread; operators communicate only
through their smart queues, so the whole plan executes in the pipelined
fashion the paper describes.  Failure handling is layered:

* per-item retries — each transform runs under a
  :class:`~repro.stream.supervision.RetryPolicy` (exponential backoff,
  deterministic jitter, optional per-attempt timeout),
* supervision — when retries are exhausted the operator's
  :class:`~repro.stream.supervision.SupervisionPolicy` decides: abort the
  plan (``fail-fast``), replace the instance and replay its buffered
  input (``restart``), or drop the item and record the loss
  (``degrade``),
* plan failure — an unrecovered error aborts all queues (unblocking
  everyone) and surfaces as an :class:`ExecutionError` carrying every
  operator failure.

A plan compiled with ``stall_timeout`` additionally runs a **watchdog**
thread: when no queue or operator counter moves for the deadline while
worker threads are still alive, the watchdog records a stall diagnosis
(per-thread Python stacks, queue depths, the stalled operators' effective
supervision policies) into the execution metrics, then escalates by
failing the plan with :class:`~repro.stream.errors.OperatorStalled` —
a hung thread cannot raise for itself, so the watchdog raises on its
behalf and the run fails loudly instead of hanging for hours.  The stuck
thread itself is abandoned (daemon), exactly like a per-attempt
:class:`~repro.stream.errors.OperatorTimeout`.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.stream.errors import (
    ExecutionError,
    OperatorError,
    OperatorStalled,
    QueueClosedError,
)
from repro.stream.metrics import (
    ExecutionMetrics,
    OperatorMetrics,
    StallEvent,
    stopwatch,
)
from repro.stream.helpers import PartialPool, open_pool
from repro.stream.mp import PROCESSES, SHARDS, resolve_backend, validate_backend
from repro.stream.operators import Sink, Source, Transform
from repro.stream.planner import PhysicalOperator, PhysicalPlan
from repro.stream.queues import END_OF_STREAM
from repro.stream.supervision import (
    FAIL_FAST,
    SupervisedTransform,
    SupervisionPolicy,
    Supervisor,
)

__all__ = ["ExecutionResult", "Executor"]


def _done(outputs: list):
    """A finished item's outputs, in the shape of a pending one."""
    return lambda: outputs


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one physical plan.

    Attributes:
        value: the sink's result.
        metrics: aggregated execution metrics.
    """

    value: Any
    metrics: ExecutionMetrics


class Executor:
    """Executes physical plans on threads, optionally backed by processes.

    Args:
        supervisor: per-operator supervision policies and the default
            retry policy; ``None`` means fail-fast everywhere with the
            legacy per-transform retry shorthand (the pre-supervision
            behaviour).  Policies attached to the logical graph (via
            ``DataflowGraph.add(..., supervision=...)``) override the
            supervisor's entries.
        stall_timeout: arm the hung-operator watchdog with this deadline
            (seconds); ``None`` leaves it off unless the plan sets one.
        backend: both run every operator on a thread and hand the
            partial operators one pool of worker processes
            (:mod:`repro.stream.helpers`): ``"threads"`` (default) sizes
            it by the usable CPUs, ``"processes"`` by the partial clones.
            ``None`` defers to the plan's backend, then the
            ``REPRO_STREAM_BACKEND`` environment variable.
        mp_context: multiprocessing start method for worker processes
            (``"fork"``/``"spawn"``); ``None`` picks the platform default.

    Example:
        >>> executor = Executor()                      # doctest: +SKIP
        >>> result = executor.run(planner.plan(graph)) # doctest: +SKIP
    """

    #: Seconds granted to healthy threads to drain after a stall abort.
    _STALL_GRACE = 2.0

    def __init__(
        self,
        supervisor: Supervisor | None = None,
        stall_timeout: float | None = None,
        backend: str | None = None,
        mp_context: str | None = None,
    ) -> None:
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive, got {stall_timeout}")
        self.supervisor = supervisor if supervisor is not None else Supervisor()
        self.stall_timeout = stall_timeout
        self.backend = validate_backend(backend) if backend is not None else None
        self.mp_context = mp_context

    def run(self, plan: PhysicalPlan) -> ExecutionResult:
        """Execute ``plan`` to completion.

        Returns:
            An :class:`ExecutionResult` with the sink value and metrics.

        Raises:
            ValueError: the plan has no operators (nothing was planned —
                a structural mistake, not an execution failure).
            ExecutionError: if any operator failed; all other operators
                are unblocked and joined before raising.  A watchdog
                stall surfaces as an
                :class:`~repro.stream.errors.OperatorStalled` failure.
        """
        if not plan.operators:
            raise ValueError("plan has no operators")
        backend = resolve_backend(plan.backend, self.backend)
        if backend == SHARDS:
            raise ValueError(
                "the 'shards' backend is not plan-based; use "
                "repro.stream.shard.run_sharded, "
                "run_partial_merge_stream(backend='shards') or "
                "Query.with_shards(n) instead of the Executor"
            )
        stall_timeout = (
            plan.stall_timeout if plan.stall_timeout is not None else self.stall_timeout
        )
        failures: list[OperatorError] = []
        failures_lock = threading.Lock()
        all_metrics: list[OperatorMetrics] = []
        stalls: list[StallEvent] = []
        sink_box: dict[str, Any] = {}

        def record_failure(err: OperatorError) -> None:
            with failures_lock:
                failures.append(err)
            for queue in plan.queues.values():
                queue.abort()

        # The partial pool starts before any operator thread: forking a
        # single-threaded parent is safe, forking a running pool is not.
        pool: PartialPool | None = None
        try:
            pool, pool_skipped = open_pool(
                plan.operators, backend == PROCESSES, self.mp_context
            )
            threads = []
            started = time.perf_counter()
            for physical in plan.operators:
                metrics = OperatorMetrics(name=physical.name)
                all_metrics.append(metrics)
                thread = threading.Thread(
                    target=self._run_operator,
                    args=(physical, metrics, record_failure, sink_box, plan),
                    name=f"stream-{physical.name}",
                    daemon=True,
                )
                threads.append(thread)
            for thread in threads:
                thread.start()
            if stall_timeout is None:
                for thread in threads:
                    thread.join()
            else:
                self._join_with_watchdog(
                    plan,
                    threads,
                    all_metrics,
                    stall_timeout,
                    stalls,
                    record_failure,
                )
            wall = time.perf_counter() - started
        finally:
            if pool is not None:
                pool.shutdown()

        metrics = ExecutionMetrics(
            wall_seconds=wall,
            operators=all_metrics,
            queues={q.name: q.stats for q in plan.queues.values()},
            injected_faults=(
                plan.fault_plan.injected_count()
                if plan.fault_plan is not None
                else 0
            ),
            stalls=stalls,
            backend=backend,
            pool=list(pool.stats) if pool is not None else [],
            pool_skipped=pool_skipped,
        )
        if failures:
            raise ExecutionError(failures, metrics=metrics)
        return ExecutionResult(value=sink_box.get("result"), metrics=metrics)

    # -- watchdog -----------------------------------------------------------

    @staticmethod
    def _progress_counter(
        plan: PhysicalPlan, all_metrics: list[OperatorMetrics]
    ) -> int:
        """Monotone counter that moves whenever any item moves anywhere."""
        total = 0
        for queue in plan.queues.values():
            total += queue.stats.puts + queue.stats.gets
        for metrics in all_metrics:
            total += metrics.items_in + metrics.items_out
        return total

    def _join_with_watchdog(
        self,
        plan: PhysicalPlan,
        threads: list[threading.Thread],
        all_metrics: list[OperatorMetrics],
        stall_timeout: float,
        stalls: list[StallEvent],
        record_failure,
    ) -> None:
        """Join worker threads while monitoring plan-wide progress.

        When no queue or operator counter moves for ``stall_timeout``
        seconds while workers are still alive, a diagnosis is recorded,
        the plan is failed with :class:`OperatorStalled` per suspect, and
        remaining threads get a short grace period before the stuck ones
        are abandoned (they are daemons).
        """
        poll = min(stall_timeout / 4.0, 0.25)
        last_progress = self._progress_counter(plan, all_metrics)
        last_change = time.monotonic()
        while True:
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                return
            for thread in alive:
                thread.join(poll / max(1, len(alive)))
            progress = self._progress_counter(plan, all_metrics)
            now = time.monotonic()
            if progress != last_progress:
                last_progress = progress
                last_change = now
                continue
            waited = now - last_change
            if waited < stall_timeout:
                continue
            event = self._diagnose_stall(plan, threads, waited)
            stalls.append(event)
            targets = event.suspects or ("plan",)
            for name in targets:
                record_failure(
                    OperatorError(name, OperatorStalled(name, waited))
                )
            deadline = time.monotonic() + self._STALL_GRACE
            for thread in threads:
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    thread.join(remaining)
            return

    def _diagnose_stall(
        self, plan: PhysicalPlan, threads: list[threading.Thread], waited: float
    ) -> StallEvent:
        """Capture thread stacks, queue depths and suspect operators."""
        frames = sys._current_frames()
        stacks: dict[str, str] = {}
        suspects: list[str] = []
        by_ident = {thread.ident: thread for thread in threads}
        physical_by_thread = {
            f"stream-{op.name}": op for op in plan.operators
        }
        for ident, frame in frames.items():
            thread = by_ident.get(ident)
            if thread is None or not thread.is_alive():
                continue
            stack_text = "".join(traceback.format_stack(frame))
            stacks[thread.name] = stack_text
            # Blocked-on-queue threads are victims of the stall, not its
            # cause; a thread stuck *inside* an operator call is a suspect.
            blocked_on_queue = any(
                frame_line.name in ("get", "put", "wait")
                and "queues.py" in frame_line.filename
                or frame_line.name == "wait"
                and "threading" in frame_line.filename
                for frame_line in traceback.extract_stack(frame)[-3:]
            )
            physical = physical_by_thread.get(thread.name)
            if physical is not None and not blocked_on_queue:
                suspects.append(physical.name)
        policies = {}
        for name in suspects:
            physical = next(
                (op for op in plan.operators if op.name == name), None
            )
            if physical is not None:
                policies[name] = self._policy_for(
                    plan, physical.logical_name
                ).mode
        return StallEvent(
            waited_seconds=waited,
            suspects=tuple(sorted(suspects)),
            policies=policies,
            queue_depths={
                queue.name: len(queue) for queue in plan.queues.values()
            },
            thread_stacks=stacks,
        )

    def _policy_for(
        self, plan: PhysicalPlan, logical_name: str
    ) -> SupervisionPolicy:
        """Graph-attached policy first, then the supervisor's mapping."""
        if logical_name in plan.supervision:
            return plan.supervision[logical_name]
        return self.supervisor.policy_for(logical_name)

    def _run_operator(
        self,
        physical: PhysicalOperator,
        metrics: OperatorMetrics,
        record_failure,
        sink_box: dict[str, Any],
        plan: PhysicalPlan,
    ) -> None:
        metrics.started_at = time.perf_counter()
        try:
            operator = physical.operator
            if isinstance(operator, Source):
                self._run_source(physical, metrics)
            elif isinstance(operator, Sink):
                self._run_sink(physical, metrics, sink_box)
            elif isinstance(operator, Transform):
                self._run_transform(physical, metrics, plan)
            else:  # pragma: no cover - planner never wires bare Operators
                raise TypeError(f"cannot execute {operator!r}")
        except QueueClosedError:
            # The plan was aborted by another operator's failure; exit
            # quietly, the original error is already recorded.
            pass
        except BaseException as exc:  # noqa: BLE001 - must not kill the pool
            record_failure(OperatorError(physical.name, exc))
        finally:
            metrics.finished_at = time.perf_counter()

    def _run_source(
        self, physical: PhysicalOperator, metrics: OperatorMetrics
    ) -> None:
        assert physical.output_queue is not None
        source = physical.operator
        assert isinstance(source, Source)
        try:
            with stopwatch(metrics):
                iterator = iter(source.generate())
            while True:
                with stopwatch(metrics):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        break
                physical.output_queue.put(item)
                metrics.items_out += 1
        finally:
            base = getattr(source, "inner", source)
            quarantined = getattr(base, "quarantined", None)
            if quarantined:
                metrics.quarantined_files.extend(quarantined)
            physical.output_queue.producer_done()

    def _run_transform(
        self,
        physical: PhysicalOperator,
        metrics: OperatorMetrics,
        plan: PhysicalPlan,
    ) -> None:
        assert physical.input_queue is not None
        assert physical.output_queue is not None
        transform = physical.operator
        assert isinstance(transform, Transform)
        policy = self._policy_for(plan, physical.logical_name)
        retry = self.supervisor.retry_policy_for(transform)
        runner = SupervisedTransform(
            transform=transform,
            policy=policy,
            retry=retry,
            metrics=metrics,
            name=physical.name,
        )
        pool = getattr(transform, "pool", None)
        if (
            pool is not None
            and policy.mode == FAIL_FAST
            and retry.max_retries == 0
            and retry.timeout is None
        ):
            # Pipelined: up to the pool's window of partitions in flight,
            # gathered as they finish.  The first error aborts the plan,
            # so it need not be raised from its own item's call.
            submit = transform.submit
        else:
            submit = lambda item: _done(runner.process(item))  # noqa: E731
        pending: deque = deque()

        def emit(everything: bool = False) -> None:
            # Outputs leave in input order.
            while pending and (everything or getattr(pending[0], "ready", True)):
                with stopwatch(metrics):
                    outputs = pending.popleft()()
                for output in outputs:
                    physical.output_queue.put(output)
                    metrics.items_out += 1

        try:
            while True:
                item = physical.input_queue.get()
                if item is END_OF_STREAM:
                    break
                metrics.items_in += 1
                with stopwatch(metrics):
                    if pool is not None:
                        pool.make_room(pending)
                    pending.append(submit(item))
                emit()
            emit(everything=True)
            with stopwatch(metrics):
                flush = runner.finish()
            for output in flush:
                physical.output_queue.put(output)
                metrics.items_out += 1
        finally:
            physical.output_queue.producer_done()

    def _run_sink(
        self,
        physical: PhysicalOperator,
        metrics: OperatorMetrics,
        sink_box: dict[str, Any],
    ) -> None:
        assert physical.input_queue is not None
        sink = physical.operator
        assert isinstance(sink, Sink)
        while True:
            item = physical.input_queue.get()
            if item is END_OF_STREAM:
                break
            metrics.items_in += 1
            with stopwatch(metrics):
                sink.consume(item)
        with stopwatch(metrics):
            sink_box["result"] = sink.result()
        incomplete = getattr(sink, "incomplete_cells", None)
        if incomplete:
            metrics.incomplete_cells.extend(incomplete)
        kernel_counters = getattr(sink, "kernel_counters", None)
        if kernel_counters:
            metrics.kernel_counters.update(kernel_counters)
        tree_stats = getattr(sink, "tree_stats", None)
        if tree_stats:
            metrics.tree_stats.update(tree_stats)
