"""Process-parallel execution backend with shared-memory chunk transfer.

The paper's Figure 8 speed-up comes from cloning the partial k-means
operator across *machines*; the thread backend approximates that only as
far as numpy releases the GIL, so the Lloyd loop's pure-Python overhead
serialises clones.  This module supplies real process parallelism while
keeping the engine's dataflow untouched:

* Each process-backed physical transform keeps its executor thread, but
  that thread becomes a *dispatcher*: it feeds items to a dedicated
  worker process and relays the results into the output queue.  Sources,
  sinks and queues stay in-process, so the journal, merge state and
  backpressure semantics are identical to the thread backend.
* Bulk point arrays cross the process boundary through
  :mod:`multiprocessing.shared_memory`: the dispatcher copies a chunk's
  points into a segment and sends a small header (name, shape, dtype)
  over the pipe — point payloads are never pickled.  Centroid summaries
  coming back are tiny (``k × (d+1)`` floats) and travel pickled.
* Workers rebuild their operator from a picklable **spec**: an operator
  opts into the backend by implementing ``to_spec()`` returning an
  object with a ``build()`` method.  A spec-built clone must make
  ``process`` a pure function of the item and the spec (true for
  :class:`~repro.stream.kmeans_ops.PartialKMeansOperator`, whose
  chunk-identity RNG depends only on the seed and ``(cell, partition)``),
  which is exactly what makes process runs bit-identical to thread runs.

Operators without a spec — and operators supervised with the ``restart``
policy, whose snapshot/replay recovery needs an in-process instance —
transparently keep running on their thread.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.stream.errors import WorkerCrashed
from repro.stream.items import DataChunk
from repro.stream.metrics import WorkerProcessStats
from repro.stream.operators import Transform

__all__ = [
    "THREADS",
    "PROCESSES",
    "SHARDS",
    "BACKEND_ENV_VAR",
    "OperatorSpec",
    "ProcessBackedTransform",
    "WorkerHandle",
    "default_mp_context",
    "resolve_backend",
    "start_worker",
    "supports_process_backend",
    "validate_backend",
]

THREADS = "threads"
PROCESSES = "processes"
SHARDS = "shards"
_BACKENDS = (THREADS, PROCESSES, SHARDS)

#: Environment override for the default backend; lets CI smoke the whole
#: stream test suite on the process backend without touching call sites.
BACKEND_ENV_VAR = "REPRO_STREAM_BACKEND"

#: Environment override for the multiprocessing start method.
MP_CONTEXT_ENV_VAR = "REPRO_MP_CONTEXT"


def validate_backend(backend: str) -> str:
    """Return ``backend`` if known, else raise ``ValueError``."""
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; use one of {_BACKENDS}"
        )
    return backend


def resolve_backend(*candidates: str | None) -> str:
    """Effective backend: first explicit candidate, then the environment.

    Args:
        candidates: backend names in priority order; ``None`` entries are
            skipped (e.g. ``resolve_backend(plan.backend, self.backend)``).

    Returns:
        ``"threads"``, ``"processes"`` or ``"shards"``; falls back to
        the :data:`BACKEND_ENV_VAR` environment variable and finally to
        ``"threads"``.

    Raises:
        ValueError: when a candidate — or the environment variable — is
            not a known backend name.  A typo'd ``REPRO_STREAM_BACKEND``
            must fail loudly, not silently run on the default backend.
    """
    for candidate in candidates:
        if candidate is not None:
            return validate_backend(candidate)
    env = os.environ.get(BACKEND_ENV_VAR)
    if env is not None and env.strip():
        value = env.strip()
        if value not in _BACKENDS:
            raise ValueError(
                f"unknown execution backend {value!r} in "
                f"{BACKEND_ENV_VAR}; use one of {_BACKENDS}"
            )
        return value
    return THREADS


def default_mp_context() -> str:
    """Start method for worker processes.

    ``fork`` where available (workers start in milliseconds and the spec
    round-trips through the pipe anyway, so nothing relies on inherited
    state); ``spawn`` elsewhere.  Overridable via :data:`MP_CONTEXT_ENV_VAR`.
    """
    env = os.environ.get(MP_CONTEXT_ENV_VAR)
    if env:
        return env
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@runtime_checkable
class OperatorSpec(Protocol):
    """Picklable recipe rebuilding one transform inside a worker process."""

    def build(self) -> Transform:
        """Construct the operator the worker will run."""
        ...


def supports_process_backend(operator: Any) -> bool:
    """Whether an operator can be offloaded (implements ``to_spec``)."""
    return callable(getattr(operator, "to_spec", None))


# -- shared-memory chunk transfer -------------------------------------------


def _chunk_to_shm(chunk: DataChunk) -> tuple[dict, shared_memory.SharedMemory]:
    """Copy a chunk's points into a fresh shared-memory segment.

    Returns the pipe-sized header (identity + segment name + dtype/shape
    handshake) and the segment, whose lifetime the caller owns: unlink
    only after the worker has replied, i.e. attached and finished.
    """
    points = chunk.points
    segment = shared_memory.SharedMemory(create=True, size=max(1, points.nbytes))
    target = np.ndarray(points.shape, dtype=points.dtype, buffer=segment.buf)
    target[...] = points
    header = {
        "cell_id": chunk.cell_id,
        "partition": chunk.partition,
        "n_partitions": chunk.n_partitions,
        "shm_name": segment.name,
        "shape": tuple(points.shape),
        "dtype": points.dtype.str,
    }
    return header, segment


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    CPython < 3.13 registers a segment with the resource tracker even on
    attach (bpo-39959).  The parent owns segment lifetime, so the worker
    must not take part in tracker bookkeeping at all: under the fork
    start method the tracker process is shared, and a worker-side
    registration/unregistration races the parent's own unlink (the
    tracker logs a KeyError for whichever unregister lands second).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - track= keyword is 3.13+
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _chunk_from_shm(header: dict) -> DataChunk:
    """Rebuild a chunk in the worker from its shared-memory header.

    The points are copied into worker-private memory so the parent can
    unlink the segment the moment the reply arrives.
    """
    segment = _attach_untracked(header["shm_name"])
    try:
        view = np.ndarray(
            header["shape"], dtype=np.dtype(header["dtype"]), buffer=segment.buf
        )
        points = np.array(view)
    finally:
        segment.close()
    return DataChunk(
        cell_id=header["cell_id"],
        partition=header["partition"],
        points=points,
        n_partitions=header["n_partitions"],
    )


# -- worker process ----------------------------------------------------------


def _encode_exception(exc: BaseException) -> tuple[bytes | None, str]:
    """Pickle an exception for the pipe, keeping the traceback as text."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = None
    return payload, text


def _decode_exception(
    worker_name: str, encoded: tuple[bytes | None, str]
) -> BaseException:
    """Rebuild a worker-side exception; fall back to :class:`WorkerCrashed`."""
    payload, text = encoded
    if payload is not None:
        try:
            return pickle.loads(payload)
        except Exception:
            pass
    return WorkerCrashed(
        worker_name, f"operator raised an untransferable error:\n{text}"
    )


def _worker_main(conn) -> None:
    """Worker process loop: build the operator, answer task messages.

    Protocol (all messages are tuples; first element is the kind):

    * ``("init", spec)`` → ``("ready", pid)`` or ``("initerr", error)``
    * ``("chunk", header)`` → ``("ok", outputs, seconds)`` /
      ``("err", error, seconds)`` — points arrive via shared memory
    * ``("item", item)`` → same replies — pickled control items
    * ``("stop",)`` → ``("bye",)`` and exit
    """
    operator: Transform | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "init":
            try:
                operator = message[1].build()
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                conn.send(("initerr", _encode_exception(exc)))
                return
            conn.send(("ready", os.getpid()))
        elif kind in ("chunk", "item"):
            started = time.perf_counter()
            try:
                if kind == "chunk":
                    item: Any = _chunk_from_shm(message[1])
                else:
                    item = message[1]
                assert operator is not None, "task before init"
                outputs = list(operator.process(item))
                conn.send(("ok", outputs, time.perf_counter() - started))
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                conn.send(
                    ("err", _encode_exception(exc), time.perf_counter() - started)
                )
        elif kind == "stop":
            conn.send(("bye",))
            conn.close()
            return


@dataclass
class WorkerHandle:
    """Parent-side handle on one worker process.

    One handle serves one physical operator instance; its dispatcher
    thread is the only caller, so submissions are synchronous and need no
    locking.

    Attributes:
        name: physical operator name the worker serves.
        process: the :class:`multiprocessing.Process`.
        conn: parent end of the task pipe.
        stats: live accounting (shared with the execution metrics).
    """

    name: str
    process: Any
    conn: Any
    stats: WorkerProcessStats = field(default=None)  # type: ignore[assignment]

    def submit(self, item: Any) -> list:
        """Run ``item`` through the worker's operator; return its outputs.

        Data chunks travel via shared memory; anything else is pickled.

        Raises:
            WorkerCrashed: the worker died mid-task or its error could
                not be transferred.
            BaseException: whatever the remote operator raised, rebuilt
                locally (so retry/supervision policies see the original
                exception type).
        """
        if isinstance(item, DataChunk):
            header, segment = _chunk_to_shm(item)
            try:
                self.conn.send(("chunk", header))
                self.stats.shm_bytes += item.points.nbytes
                return self._receive()
            finally:
                segment.close()
                segment.unlink()
        self.conn.send(("item", item))
        return self._receive()

    def _receive(self) -> list:
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(
                self.name, f"worker process died mid-task ({exc!r})"
            ) from exc
        if reply[0] == "ok":
            _, outputs, seconds = reply
            self.stats.items += 1
            self.stats.busy_seconds += seconds
            return outputs
        _, encoded, seconds = reply
        self.stats.busy_seconds += seconds
        raise _decode_exception(self.name, encoded)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker, escalating to ``terminate`` if it lingers."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def start_worker(
    spec: OperatorSpec, name: str, mp_context: str | None = None
) -> WorkerHandle:
    """Start one worker process and build ``spec``'s operator inside it.

    Args:
        spec: picklable operator spec (``build()`` runs in the worker).
        name: physical operator name, used for labels and diagnostics.
        mp_context: multiprocessing start method; default
            :func:`default_mp_context`.

    Returns:
        A ready :class:`WorkerHandle` (the worker has confirmed its
        operator was built).

    Raises:
        WorkerCrashed: the worker died before confirming readiness.
        BaseException: ``spec.build()`` raised in the worker; rebuilt here.
    """
    ctx = get_context(mp_context or default_mp_context())
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn,),
        name=f"stream-worker-{name}",
        daemon=True,
    )
    started = time.perf_counter()
    process.start()
    child_conn.close()
    handle = WorkerHandle(name=name, process=process, conn=parent_conn)
    try:
        parent_conn.send(("init", spec))
        reply = parent_conn.recv()
    except (EOFError, OSError) as exc:
        handle.shutdown(timeout=1.0)
        raise WorkerCrashed(
            name, f"worker process died during startup ({exc!r})"
        ) from exc
    if reply[0] != "ready":
        handle.shutdown(timeout=1.0)
        raise _decode_exception(name, reply[1])
    handle.stats = WorkerProcessStats(
        name=name, pid=reply[1], spawn_seconds=time.perf_counter() - started
    )
    return handle


class ProcessBackedTransform(Transform):
    """Dispatcher-side proxy running a spec-built clone in a worker.

    Data chunks are shipped to the worker; control items (watermarks) and
    the end-of-stream flush run on the in-process operator, preserving
    ordering within this physical instance.  Retry attributes are
    mirrored from the wrapped operator so the executor's supervision
    machinery (retry, degrade) applies unchanged — a retry simply
    re-submits the item to the worker.
    """

    def __init__(self, inner: Transform, worker: WorkerHandle) -> None:
        super().__init__(inner.name)
        self.inner = inner
        self.worker = worker
        self.max_retries = inner.max_retries
        self.retryable_errors = inner.retryable_errors
        self.retry_policy = inner.retry_policy

    def process(self, item: Any) -> list:
        if isinstance(item, DataChunk):
            return self.worker.submit(item)
        return list(self.inner.process(item))

    def finish(self) -> list:
        return list(self.inner.finish())
