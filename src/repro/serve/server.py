"""Async clustering server over a warm :class:`ModelRegistry`.

:class:`ClusterServer` is the long-lived serving loop: client threads
submit requests and receive futures; worker threads take whatever their
:class:`~repro.serve.batching.RequestBatcher` has queued, group it by
``(endpoint, cell)`` and answer each group with one registry call — an
``assign`` group for one cell costs one pooled distance computation
regardless of how many clients are in it.

Nothing sits between a request and a free worker:

* **queries** wait in one FIFO that ``query_workers`` threads serve.  An
  idle worker takes a lone request the moment it arrives; while every
  worker is busy, arrivals pile up, and the next worker to come free
  takes them together (up to ``max_batch``).  Batching is what
  backpressure leaves behind, not something a timer imposes.
* **ingests** wait in a FIFO of their own, served by one lane thread in
  arrival order — per cell, arrival order = fold order = journal order,
  so the warm-restart bits never depend on scheduling — and never hold
  up a read: the lane does the partial k-means, the journal append and
  the fold outside the cell's read lock (see
  :meth:`ModelRegistry.ingest`).

With ``query_workers=0`` there is a single FIFO and a single thread (the
dispatcher) that answers everything, ingest included, in arrival order.

Visibility: every response is computed under the cell's lock against a
single published model version (``model_version`` says which).  A read
observes every ingest whose receipt had resolved when the read was
submitted (read-your-writes); an ingest merely *submitted* earlier, by
anyone, may or may not be visible yet.

Endpoint latencies (measured enqueue-to-answer, the number a client
feels) and ingest update lag flow into
:class:`~repro.stream.metrics.ServingMetrics`, exportable as JSON via
:func:`repro.stream.tracing.dump_serving_json`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.core.model import as_points
from repro.serve.batching import PendingRequest, RequestBatcher, group_requests
from repro.serve.registry import AssignResult, ModelRegistry, ServeError
from repro.stream.metrics import ServingMetrics

__all__ = ["ClusterServer"]

#: Endpoints answered by the server, in documentation order.
ENDPOINTS = (
    "assign",
    "nearest",
    "summary",
    "prefix",
    "window",
    "ingest",
    "cells",
    "stats",
)
#: Endpoints that address the registry as a whole, not one cell.
_REGISTRY_OPS = ("cells", "stats")


def _required(request: PendingRequest, key: str):
    """The request's ``key`` argument; a named error when it is absent."""
    try:
        return request.payload[key]
    except KeyError:
        raise ValueError(f"{request.op} needs {key!r}") from None


class ClusterServer:
    """Request server over one :class:`ModelRegistry`.

    Args:
        registry: the warm model registry to serve.
        max_batch: most queued requests one worker takes at once.
        query_workers: threads answering queries concurrently, beside
            the one ingest lane (``0`` answers everything, ingest
            included, inline on a single dispatcher thread — fully
            deterministic scheduling, for tests).

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 32,
        query_workers: int = 2,
    ) -> None:
        if query_workers < 0:
            raise ValueError(
                f"query_workers must be >= 0, got {query_workers}"
            )
        self.registry = registry
        self.metrics = ServingMetrics(queue_probe=self._queue_state)
        self._queries = RequestBatcher(max_batch=max_batch)
        # Inline mode keeps one FIFO so that reads and ingests are
        # answered in the order they arrived.
        self._ingests = (
            RequestBatcher(max_batch=max_batch)
            if query_workers
            else self._queries
        )
        self._query_workers = query_workers
        self._threads: list[threading.Thread] = []
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterServer":
        """Start the worker threads (idempotent)."""
        if self._started:
            return self
        self._started = True
        if self._query_workers:
            lanes = [
                (f"serve-query-{index}", self._queries)
                for index in range(self._query_workers)
            ]
            lanes.append(("serve-ingest", self._ingests))
        else:
            lanes = [("serve-dispatch", self._queries)]
        for name, batcher in lanes:
            thread = threading.Thread(
                target=self._serve_loop,
                args=(batcher,),
                name=name,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        """Answer everything accepted, stop threads, close the registry.

        Intake stops first; the workers and the ingest lane then drain
        what was accepted and exit.  A request still queued after that
        (its thread died) is failed rather than left hanging.
        """
        if self._closed:
            return
        self._closed = True
        self._queries.close()
        self._ingests.close()
        for thread in self._threads:
            thread.join()
        for batcher in (self._queries, self._ingests):
            while stranded := batcher.next_batch():
                for request in stranded:
                    request.future.set_exception(
                        RuntimeError("server closed")
                    )
        self.registry.close()

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(
        self, op: str, cell: str | None = None, **payload
    ) -> Future:
        """Enqueue one request; the future resolves with the answer."""
        if not self._started or self._closed:
            raise RuntimeError("server is not running")
        if op not in ENDPOINTS:
            raise ValueError(
                f"unknown endpoint {op!r}; valid: {', '.join(ENDPOINTS)}"
            )
        if op not in _REGISTRY_OPS and not isinstance(cell, str):
            raise ValueError(f"{op} needs a cell id (a string), got {cell!r}")
        batcher = self._ingests if op == "ingest" else self._queries
        try:
            return batcher.submit(op, cell, payload).future
        except RuntimeError:
            # close() won the race after the check above.
            raise RuntimeError("server is not running") from None

    # Synchronous conveniences: submit + wait.

    def assign(self, cell: str, points) -> AssignResult:
        """Nearest-centroid assignment for ``points`` of ``cell``."""
        return self.submit("assign", cell, points=points).result()

    def nearest(self, cell: str, points) -> AssignResult:
        """Alias of :meth:`assign` that callers use for the centroid
        coordinates rather than the indices."""
        return self.submit("nearest", cell, points=points).result()

    def summary(self, cell: str):
        """The cell's hot model summary."""
        return self.submit("summary", cell).result()

    def prefix(self, cell: str, upto: int | None = None):
        """Coreset-tree prefix clustering of the cell."""
        return self.submit("prefix", cell, upto=upto).result()

    def window(self, cell: str, last_n: int, upto: int | None = None):
        """Coreset-tree trailing-window clustering of the cell."""
        return self.submit("window", cell, last_n=last_n, upto=upto).result()

    def ingest(self, cell: str, points):
        """Fold a chunk of new points into the cell (durable, ordered)."""
        return self.submit("ingest", cell, points=points).result()

    def stats(self) -> dict:
        """Registry + serving counters."""
        return self.submit("stats").result()

    def cells(self) -> list[str]:
        """Resident cells."""
        return self.submit("cells").result()

    # -- serving -------------------------------------------------------------

    def _serve_loop(self, batcher: RequestBatcher) -> None:
        while batch := batcher.next_batch():
            for (op, cell), group in group_requests(batch):
                self.metrics.record_batch(op, len(group))
                with self._in_flight_lock:
                    self._in_flight += 1
                try:
                    self._run_group(op, cell, group)
                finally:
                    with self._in_flight_lock:
                        self._in_flight -= 1

    def _queue_state(self) -> dict[str, int]:
        inline = self._ingests is self._queries
        return {
            "query_depth": self._queries.depth,
            "ingest_backlog": 0 if inline else self._ingests.depth,
            "in_flight_groups": self._in_flight,
        }

    def _run_group(
        self, op: str, cell: str | None, group: list[PendingRequest]
    ) -> None:
        try:
            if op in ("assign", "nearest") and len(group) > 1:
                self._run_pooled_assign(cell, group)
            else:
                for request in group:
                    self._answer(request, self._execute)
        except BaseException as exc:  # pragma: no cover - defensive
            for request in group:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _answer(self, request: PendingRequest, runner) -> None:
        try:
            result = runner(request)
        except Exception as exc:
            self.metrics.record(
                request.op,
                time.perf_counter() - request.enqueued_at,
                error=True,
            )
            request.future.set_exception(exc)
        else:
            items = result[1] if isinstance(result, tuple) else 1
            value = result[0] if isinstance(result, tuple) else result
            self.metrics.record(
                request.op,
                time.perf_counter() - request.enqueued_at,
                items=items,
            )
            request.future.set_result(value)

    def _execute(self, request: PendingRequest):
        registry = self.registry
        op, cell, payload = request.op, request.cell, request.payload
        if op in ("assign", "nearest"):
            result = registry.assign(cell, _required(request, "points"))
            return result, result.assignments.shape[0]
        if op == "summary":
            return registry.summary(cell)
        if op == "prefix":
            return registry.prefix(cell, upto=payload.get("upto"))
        if op == "window":
            return registry.window(
                cell, _required(request, "last_n"), upto=payload.get("upto")
            )
        if op == "ingest":
            receipt = registry.ingest(cell, _required(request, "points"))
            self.metrics.record_update_lag(
                time.perf_counter() - request.enqueued_at,
                items=receipt.n_points,
            )
            return receipt, receipt.n_points
        if op == "stats":
            payload = dict(registry.stats())
            payload["serving"] = self.metrics.snapshot()
            return payload
        if op == "cells":
            return registry.cells()
        raise ServeError(f"unknown endpoint {op!r}")

    def _run_pooled_assign(
        self, cell: str, group: list[PendingRequest]
    ) -> None:
        """Answer a same-cell assign group with one distance computation."""
        arrays = []
        try:
            for request in group:
                arrays.append(as_points(_required(request, "points")))
            if len({a.shape[1] for a in arrays}) != 1:
                raise ValueError("mixed dimensionality in assign batch")
        except Exception:
            # A malformed member must not poison the batch: fall back to
            # per-request answering so the bad request alone fails.
            for request in group:
                self._answer(request, self._execute)
            return
        offsets = [0]
        for array in arrays:
            offsets.append(offsets[-1] + array.shape[0])
        try:
            pooled = self.registry.assign(cell, np.vstack(arrays))
        except Exception as exc:
            now = time.perf_counter()
            for request in group:
                self.metrics.record(
                    request.op, now - request.enqueued_at, error=True
                )
                request.future.set_exception(exc)
            return
        now = time.perf_counter()
        for index, request in enumerate(group):
            lo, hi = offsets[index], offsets[index + 1]
            sliced = AssignResult(
                cell_id=pooled.cell_id,
                assignments=pooled.assignments[lo:hi],
                sq_dists=pooled.sq_dists[lo:hi],
                centroids=pooled.centroids[lo:hi],
                model_version=pooled.model_version,
                stale=pooled.stale,
            )
            self.metrics.record(
                request.op,
                now - request.enqueued_at,
                items=hi - lo,
            )
            request.future.set_result(sliced)
