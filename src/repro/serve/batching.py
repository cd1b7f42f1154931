"""Request batching for the serving layer: batch only under backpressure.

A batch is *whatever is queued when a worker comes back for more*:
:meth:`RequestBatcher.next_batch` blocks while the queue is empty and
otherwise takes everything already waiting, up to ``max_batch`` — it
never holds a request back hoping for company.  On an idle server that
is a batch of one, taken the moment it arrives; on a saturated one the
workers are busy while requests pile up here, so the next batch is
large and requests for the same ``(op, cell)`` pool into one model read
(an ``assign`` group becomes a single distance computation).  Batch
size therefore follows load; no timer sits on the request path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

__all__ = ["PendingRequest", "RequestBatcher", "group_requests"]


@dataclass
class PendingRequest:
    """One enqueued request awaiting dispatch.

    Attributes:
        op: endpoint name (``"assign"``, ``"summary"``, ``"ingest"``, ...).
        cell: target cell id (``None`` for registry-level ops).
        payload: endpoint-specific arguments.
        future: resolved with the endpoint's answer (or its exception).
        enqueued_at: perf-counter timestamp of submission — request
            latency and ingest update lag are both measured from here.
    """

    op: str
    cell: str | None
    payload: dict
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)


class RequestBatcher:
    """Thread-safe FIFO of pending requests, handed out in batches.

    Args:
        max_batch: most requests one :meth:`next_batch` call returns.
    """

    def __init__(self, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._pending: deque[PendingRequest] = deque()
        # One lock covers the closed check and the append, so a request
        # is either refused or queued ahead of the close — never lost.
        self._ready = threading.Condition()
        self._closed = False

    def submit(
        self, op: str, cell: str | None = None, payload: dict | None = None
    ) -> PendingRequest:
        """Enqueue one request; returns it with an unresolved future."""
        request = PendingRequest(op=op, cell=cell, payload=payload or {})
        with self._ready:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._pending.append(request)
            self._ready.notify()
        return request

    def next_batch(
        self, timeout: float | None = None
    ) -> list[PendingRequest] | None:
        """Take what is queued, up to ``max_batch``, in arrival order.

        Blocks (up to ``timeout``; forever when ``None``) only while the
        queue is empty and open.

        Returns:
            The batch, ``None`` if nothing arrived within ``timeout``,
            or ``[]`` once the batcher has been closed and drained.
        """
        with self._ready:
            arrived = self._ready.wait_for(
                lambda: self._pending or self._closed, timeout
            )
            if not arrived:
                return None
            count = min(len(self._pending), self.max_batch)
            return [self._pending.popleft() for _ in range(count)]

    def close(self) -> None:
        """Stop accepting requests and wake every consumer (idempotent).

        Requests queued before the close are still handed out; the
        empty batch comes only after them.
        """
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def depth(self) -> int:
        """Requests currently queued."""
        return len(self._pending)


def group_requests(
    batch: list[PendingRequest],
) -> list[tuple[tuple[str, str | None], list[PendingRequest]]]:
    """Group a batch by ``(op, cell)``, preserving first-arrival order.

    Within a group, requests keep their arrival order — the ingest
    endpoint's per-cell ordering guarantee rests on this plus one
    lane thread being the ingest queue's only consumer.
    """
    groups: dict[tuple[str, str | None], list[PendingRequest]] = {}
    order: list[tuple[str, str | None]] = []
    for request in batch:
        key = (request.op, request.cell)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(request)
    return [(key, groups[key]) for key in order]
