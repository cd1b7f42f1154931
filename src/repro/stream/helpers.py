"""Restart helpers: a partition's ``R`` restarts on every usable CPU.

A partition's restarts are independent Lloyd runs from seed sets drawn
up front, and only the min-MSE run is kept — the paper's Figure 2
"Method B: one restart per processor".  On the thread backend the
executor forks these helpers **before it starts any operator thread**
(forking a single-threaded parent is safe, forking a running pool is
not) and hands them to the plan's partial operators:

* Helpers are forked only where they can pay: the ``fork`` start method,
  at least two usable CPUs (``os.sched_getaffinity``), a partial
  operator with ``restarts >= 2``, and no other thread alive in the
  parent.  There is one helper per usable CPU, but never more than the
  partial operators can keep busy at once (``restarts - 1`` each).
* Each helper is an ordinary :mod:`repro.stream.mp` worker whose task is
  a pickled :class:`RestartBatch`; it answers with one slim Lloyd result
  per seed set (everything but the per-point assignments).
* A partition of at least :data:`FANOUT_MIN_POINTS` points deals
  restarts ``1 … R-1`` round-robin over the helpers that are free (it
  never waits for one), runs its own share — restart 0 included — on the
  partial thread, then gathers.  The winner is picked in run order as
  in-process, so every bit is the same as a one-thread run.
* A helper that dies is dropped and never re-forked; its restarts rerun
  on the partial thread.  An error raised inside a helper is re-raised
  with its type.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.kernels import LloydKernel
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import KMeansResult
from repro.core.restarts import run_restarts
from repro.stream.errors import WorkerCrashed
from repro.stream.metrics import WorkerProcessStats
from repro.stream.mp import WorkerHandle, default_mp_context, start_worker
from repro.stream.operators import Transform

__all__ = [
    "FANOUT_MIN_POINTS",
    "RestartBatch",
    "RestartHelperSpec",
    "RestartHelpers",
    "fork_restart_helpers",
    "usable_cpus",
]

#: Smallest partition whose restarts are spread over helpers.  Below it,
#: shipping the points and gathering the results costs more than the
#: restarts a helper takes off the partial thread: with k = 40, d = 6,
#: random seeds and a 25-iteration cap on 2 CPUs, helpers lost at 250
#: points (0.86x, 3 restarts) and won from 500 up (1.07x at 3 restarts,
#: 1.23x at 10; 1.3-1.7x from 1 500).
FANOUT_MIN_POINTS = 500


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RestartBatch:
    """One helper's share of a partition's restarts: points and seed sets."""

    points: np.ndarray
    seed_sets: tuple[np.ndarray, ...]
    weights: np.ndarray | None
    max_iter: int
    kernel: str | None


class _RestartLane(Transform):
    """A helper's operator: one Lloyd run per seed set of a batch."""

    def process(self, item: RestartBatch) -> Iterator[KMeansResult]:
        for result in run_restarts(
            item.points, item.seed_sets, item.weights, item.max_iter, item.kernel
        ):
            yield replace(result, assignments=None)


@dataclass(frozen=True)
class RestartHelperSpec:
    """Picklable spec building a restart helper's operator."""

    def build(self) -> Transform:
        return _RestartLane("restart-helper")


class RestartHelpers:
    """Pre-forked restart helpers shared by one run's partial operators.

    Calling the pool is a :data:`~repro.core.restarts.RestartRunner`:
    ``pool(points, seed_sets, weights, max_iter, kernel)`` returns one
    result per seed set, in seed-set order.  Any number of partial
    threads may call it at once; each takes only helpers that are free.
    """

    def __init__(self, handles: Sequence[WorkerHandle]) -> None:
        self._free = list(handles)
        self._live = list(handles)
        self._lock = threading.Lock()
        self._operators: list = []
        #: Accounting per helper ever forked, dropped ones included.
        self.stats: list[WorkerProcessStats] = [h.stats for h in handles]

    @classmethod
    def fork(cls, count: int, mp_context: str | None = None) -> "RestartHelpers":
        """Start ``count`` helpers; none are left running if one fails."""
        handles: list[WorkerHandle] = []
        try:
            for index in range(count):
                handles.append(
                    start_worker(
                        RestartHelperSpec(),
                        name=f"restart-helper#{index}",
                        mp_context=mp_context,
                    )
                )
        except BaseException:
            for handle in handles:
                handle.shutdown()
            raise
        return cls(handles)

    def __deepcopy__(self, memo) -> "RestartHelpers":
        # A ``restart``-supervised operator's snapshot and replacements
        # share the run's helpers; processes and pipes cannot be copied.
        return self

    @property
    def live(self) -> int:
        """Helpers not dropped or shut down."""
        return len(self._live)

    def __call__(
        self,
        points: np.ndarray,
        seed_sets: Sequence[np.ndarray],
        weights: np.ndarray | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        kernel: "str | LloydKernel | None" = None,
    ) -> list[KMeansResult]:
        restarts = len(seed_sets)
        if restarts < 2 or points.shape[0] < FANOUT_MIN_POINTS:
            return run_restarts(points, seed_sets, weights, max_iter, kernel)
        helpers = self._acquire(restarts - 1)
        lanes = len(helpers) + 1
        # Restart r runs on lane r % lanes; lane 0 is this thread.
        own = list(range(0, restarts, lanes))
        posted: list[tuple[WorkerHandle, list[int]]] = []
        for lane, helper in enumerate(helpers, start=1):
            share = list(range(lane, restarts, lanes))
            batch = RestartBatch(
                points=points,
                seed_sets=tuple(seed_sets[run] for run in share),
                weights=weights,
                max_iter=max_iter,
                kernel=kernel,
            )
            try:
                helper.post(batch)
            except Exception:  # noqa: BLE001 - a dead pipe: run it here
                self._drop(helper)
                own.extend(share)
                continue
            posted.append((helper, share))

        results: list[KMeansResult | None] = [None] * restarts
        error: BaseException | None = None
        try:
            self._run_here(results, own, points, seed_sets, weights, max_iter, kernel)
        except BaseException as exc:  # noqa: BLE001 - raised after the gather
            error = exc
        lost: list[int] = []
        for helper, share in posted:
            try:
                outputs = helper.collect()
            except WorkerCrashed:
                self._drop(helper)
                lost.extend(share)
                continue
            except BaseException as exc:  # noqa: BLE001 - the remote error
                self._release(helper)
                error = error or exc
                continue
            self._release(helper)
            for run, result in zip(share, outputs):
                results[run] = result
        if error is not None:
            raise error
        self._run_here(results, lost, points, seed_sets, weights, max_iter, kernel)
        return results  # type: ignore[return-value]

    @staticmethod
    def _run_here(results, runs, points, seed_sets, weights, max_iter, kernel) -> None:
        local = run_restarts(
            points, [seed_sets[run] for run in runs], weights, max_iter, kernel
        )
        for run, result in zip(runs, local):
            results[run] = result

    def _acquire(self, limit: int) -> list[WorkerHandle]:
        with self._lock:
            taken, self._free = self._free[:limit], self._free[limit:]
        return taken

    def _release(self, helper: WorkerHandle) -> None:
        with self._lock:
            if helper in self._live:
                self._free.append(helper)

    def _drop(self, helper: WorkerHandle) -> None:
        """Retire a helper that died: reap it, never fork a replacement."""
        with self._lock:
            if helper in self._live:
                self._live.remove(helper)
        helper.shutdown(timeout=1.0)

    def attach(self, operators: Iterable) -> None:
        """Give ``operators`` (partial operators) this pool until shutdown."""
        for operator in operators:
            operator.restart_helpers = self
            self._operators.append(operator)

    def shutdown(self) -> None:
        """Stop every live helper and detach the pool from its operators."""
        for operator in self._operators:
            operator.restart_helpers = None
        with self._lock:
            live, self._live, self._free = self._live, [], []
        for helper in live:
            helper.shutdown()


def _partial_operators(operators: Iterable) -> list:
    """The partial operators of a plan's physical operators, unwrapped."""
    found = []
    for physical in operators:
        operator = physical.operator
        while not hasattr(operator, "restart_helpers") and hasattr(operator, "inner"):
            operator = operator.inner
        if hasattr(operator, "restart_helpers"):
            found.append(operator)
    return found


def fork_restart_helpers(
    operators: Iterable, mp_context: str | None = None
) -> RestartHelpers | None:
    """Fork a plan's restart helpers and hand them to its partial operators.

    Call before any operator thread starts.  Returns ``None`` (and forks
    nothing) unless the start method is ``fork``, at least two CPUs are
    usable, some partial operator runs ``restarts >= 2`` and no other
    thread is alive.  The caller must :meth:`~RestartHelpers.shutdown`
    the pool when the run ends, which also detaches it.
    """
    partials = _partial_operators(operators)
    cpus = usable_cpus()
    count = min(cpus, sum(operator.recipe.restarts - 1 for operator in partials))
    if (
        count < 1
        or cpus < 2
        or (mp_context or default_mp_context()) != "fork"
        or threading.active_count() != 1
    ):
        return None
    pool = RestartHelpers.fork(count, mp_context="fork")
    pool.attach(partials)
    return pool
