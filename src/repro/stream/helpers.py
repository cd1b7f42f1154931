"""The partial pool: one run's partitions and restarts on every usable CPU.

The executor forks one pool of :mod:`repro.stream.mp` workers per run,
**before it starts any operator thread** (forking a single-threaded
parent is safe, forking a running thread pool is not), and hands it to
the plan's partial operators.  Each worker answers a whole partition (a
:class:`~repro.stream.items.DataChunk`, run by the partial operator
rebuilt from its spec: the paper's cloned operator) or a
:class:`RestartBatch` (some of one partition's restarts: its Figure 2
"Method B"), with the same bits as a one-thread run.  A worker that dies
is dropped, never re-forked, and its task reruns on the calling thread;
an error raised inside a worker is re-raised there with its own type.
``docs/stream_engine.md`` ("Partial pool") has the when and the why.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from multiprocessing import connection
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.kernels import LloydKernel
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import KMeansResult
from repro.core.restarts import run_restarts
from repro.stream.errors import WorkerCrashed
from repro.stream.metrics import WorkerProcessStats
from repro.stream.mp import (
    OperatorSpec,
    WorkerHandle,
    default_mp_context,
    start_worker,
    supports_process_backend,
)
from repro.stream.operators import FunctionTransform, Transform

__all__ = [
    "FANOUT_MIN_POINTS",
    "PartialPool",
    "PoolLaneSpec",
    "RestartBatch",
    "open_pool",
    "usable_cpus",
]

#: Smallest partition whose restarts are dealt over the pool instead of
#: the whole partition going to one worker (``restarts >= 2`` only).
#: Measured with ``Query.scan_cells`` on one 75 000-point cell (k = 40,
#: d = 6, random × 3, cap 25, 2 CPUs, min of 3, data seeds 1 and 2),
#: whole partitions vs restart batches, in s: P = 3 (25 000 points)
#: 0.49 / 0.62 vs 0.41 / 0.36; P = 5 (15 000) 0.41 vs 0.44; P = 10
#: (7 500) 0.45 / 0.43 vs 0.56 / 0.48; P = 30 (2 500) 0.54 / 0.45 vs
#: 0.64 / 0.52.  Three partitions on two workers leave a one-partition
#: tail; from five up, whole partitions pipeline and win.
FANOUT_MIN_POINTS = 20_000


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RestartBatch:
    """One worker's share of a partition's restarts: points and seed sets."""

    points: np.ndarray
    seed_sets: tuple[np.ndarray, ...]
    weights: np.ndarray | None
    max_iter: int
    kernel: str | None


def run_batch(batch: RestartBatch) -> list[KMeansResult]:
    """One Lloyd run per seed set of ``batch``, in this process."""
    return run_restarts(
        batch.points, batch.seed_sets, batch.weights, batch.max_iter, batch.kernel
    )


@dataclass(frozen=True)
class PoolLaneSpec:
    """Picklable spec building a pool worker's operator from the plan's
    ``partial`` operator spec (``None``: restart batches only)."""

    partial: OperatorSpec | None = None

    def build(self) -> Transform:
        partial = self.partial.build() if self.partial is not None else None

        def lane(item: Any) -> list:
            if isinstance(item, RestartBatch):
                return [replace(run, assignments=None) for run in run_batch(item)]
            return partial.process(item)

        return FunctionTransform("pool-lane", lane)


@dataclass
class _Task:
    """A task posted to one pool worker; calling it gives its outputs.

    :meth:`gather` waits for the reply and frees the worker; a dead
    worker's task reruns here.  A remote error is raised when called.
    """

    pool: "PartialPool"
    worker: WorkerHandle | None
    item: Any
    rerun: Callable[[Any], list]
    outputs: list | None = None
    error: BaseException | None = None

    @property
    def ready(self) -> bool:
        return self.worker is None

    def gather(self) -> None:
        worker, self.worker = self.worker, None
        try:
            self.outputs = worker.collect()
        except WorkerCrashed:
            self.pool._drop(worker)
            self.outputs = self.rerun(self.item)
            return
        except BaseException as exc:  # noqa: BLE001 - raised by __call__
            self.error = exc
        else:
            if isinstance(self.item, RestartBatch):
                worker.stats.restart_batches += 1
            else:
                worker.stats.partitions += 1
            self.item = None  # a finished partition's points can go
        self.pool._release(worker)

    def __call__(self) -> list:
        if not self.ready:
            self.gather()
        if self.error is not None:
            raise self.error
        return self.outputs


class PartialPool:
    """Pre-forked workers shared by one run's partial operators.

    :meth:`post` hands a whole partition to a free worker; calling the
    pool is a :data:`~repro.core.restarts.RestartRunner`.  Any number of
    threads may use it at once; each takes only workers that are free.
    """

    def __init__(self, handles: Sequence[WorkerHandle]) -> None:
        self._free = list(handles)
        self._live = list(handles)
        self._lock = threading.Lock()
        self._operators: list = []
        #: Accounting per worker ever forked, dropped ones included.
        self.stats: list[WorkerProcessStats] = [h.stats for h in handles]

    @classmethod
    def fork(
        cls,
        count: int,
        partial: OperatorSpec | None = None,
        mp_context: str | None = None,
    ) -> "PartialPool":
        """Start ``count`` workers; none are left running if one fails."""
        handles: list[WorkerHandle] = []
        try:
            for index in range(count):
                spec = PoolLaneSpec(partial)
                handles.append(start_worker(spec, f"pool#{index}", mp_context))
        except BaseException:
            for handle in handles:
                handle.shutdown()
            raise
        return cls(handles)

    def __deepcopy__(self, memo) -> "PartialPool":
        # A ``restart``-supervised operator's snapshot and replacements
        # share the run's pool; processes and pipes cannot be copied.
        return self

    @property
    def live(self) -> int:
        """Workers not dropped or shut down."""
        return len(self._live)

    @property
    def window(self) -> int:
        """Partitions one of the attached operators may keep in flight."""
        return max(1, self.live // max(1, len(self._operators)))

    @staticmethod
    def takes_whole(n_points: int, restarts: int) -> bool:
        """Whether a partition goes whole to a worker, not as restarts."""
        return restarts < 2 or n_points < FANOUT_MIN_POINTS

    def post(self, item: Any, rerun: Callable[[Any], list]) -> _Task | None:
        """Send ``item`` to a free worker; ``None`` when none is free."""
        while True:
            taken = self._acquire(1)
            if not taken:
                return None
            task = self._send(taken[0], item, rerun)
            if task is not None:
                return task

    def make_room(self, pending: Iterable) -> None:
        """Gather ``pending``'s tasks as they finish until fewer than
        :attr:`window` are in flight."""
        flying = {t.worker.conn: t for t in pending if not getattr(t, "ready", True)}
        while len(flying) >= self.window:
            for conn in connection.wait(list(flying)):
                flying.pop(conn).gather()

    def __call__(
        self,
        points: np.ndarray,
        seed_sets: Sequence[np.ndarray],
        weights: np.ndarray | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        kernel: "str | LloydKernel | None" = None,
    ) -> list[KMeansResult]:
        restarts = len(seed_sets)
        if self.takes_whole(points.shape[0], restarts):
            return run_restarts(points, seed_sets, weights, max_iter, kernel)
        workers = self._acquire(restarts - 1)
        lanes = len(workers) + 1
        # Restart r runs on lane r % lanes; lane 0 is this thread.
        own = list(range(0, restarts, lanes))
        posted: list[tuple[_Task, list[int]]] = []
        for lane, worker in enumerate(workers, start=1):
            share = list(range(lane, restarts, lanes))
            batch = RestartBatch(
                points=points,
                seed_sets=tuple(seed_sets[run] for run in share),
                weights=weights,
                max_iter=max_iter,
                kernel=kernel,
            )
            task = self._send(worker, batch, run_batch)
            if task is None:
                own.extend(share)
            else:
                posted.append((task, share))

        results: list[KMeansResult | None] = [None] * restarts
        error: BaseException | None = None
        try:
            local = run_restarts(
                points, [seed_sets[run] for run in own], weights, max_iter, kernel
            )
            for run, result in zip(own, local):
                results[run] = result
        except BaseException as exc:  # noqa: BLE001 - raised after the gather
            error = exc
        for task, share in posted:
            try:
                outputs = task()
            except BaseException as exc:  # noqa: BLE001 - the remote error
                error = error or exc
                continue
            for run, result in zip(share, outputs):
                results[run] = result
        if error is not None:
            raise error
        return results  # type: ignore[return-value]

    def _send(self, worker: WorkerHandle, item: Any, rerun) -> _Task | None:
        """Post ``item`` to ``worker``; drop the worker if its pipe is dead."""
        try:
            worker.post(item)
        except Exception:  # noqa: BLE001 - a dead pipe: the caller runs it
            self._drop(worker)
            return None
        return _Task(self, worker, item, rerun)

    def _acquire(self, limit: int) -> list[WorkerHandle]:
        with self._lock:
            taken, self._free = self._free[:limit], self._free[limit:]
        return taken

    def _release(self, worker: WorkerHandle) -> None:
        with self._lock:
            if worker in self._live:
                self._free.append(worker)

    def _drop(self, worker: WorkerHandle) -> None:
        """Retire a worker that died: reap it, never fork a replacement."""
        with self._lock:
            if worker in self._live:
                self._live.remove(worker)
        worker.shutdown(timeout=1.0)

    def attach(self, operators: Iterable) -> None:
        """Give ``operators`` (partial operators) this pool until shutdown."""
        for operator in operators:
            operator.pool = self
            self._operators.append(operator)

    def shutdown(self) -> None:
        """Stop every live worker and detach the pool from its operators."""
        for operator in self._operators:
            operator.pool = None
        with self._lock:
            live, self._live, self._free = self._live, [], []
        for worker in live:
            worker.shutdown()


def _partial_operators(operators: Iterable) -> list:
    """The partial operators of a plan's physical operators, unwrapped."""
    found = []
    for physical in operators:
        operator = physical.operator
        while not supports_process_backend(operator) and hasattr(operator, "inner"):
            operator = operator.inner
        if supports_process_backend(operator):
            found.append(operator)
    return found


def open_pool(
    operators: Iterable, processes: bool = False, mp_context: str | None = None
) -> tuple[PartialPool | None, str | None]:
    """Fork a run's partial pool and attach it to its partial operators.

    Call before any operator thread starts.  Returns ``(pool, None)``, or
    ``(None, reason)`` when it forks nothing.  The caller must
    :meth:`~PartialPool.shutdown` the pool, which also detaches it.
    """
    partials = _partial_operators(operators)
    if not partials:
        return None, "no partial operator"
    spec = partials[0].to_spec()
    # A worker runs one spec; a partial with another one keeps its thread.
    partials = [operator for operator in partials if operator.to_spec() == spec]
    context = mp_context or default_mp_context()
    if processes:
        size = len(partials)
    else:
        size = usable_cpus()
        if size < 2:
            return None, "one usable CPU"
        if context != "fork":
            return None, f"{context} start method"
        if threading.active_count() != 1:
            return None, "another thread alive"
    pool = PartialPool.fork(size, spec, mp_context=context)
    pool.attach(partials)
    return pool, None
