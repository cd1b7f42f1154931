"""Worker processes fed over pipes, and the execution backend names.

Threads parallelise the partial k-means operator only as far as numpy
releases the GIL.  This module supplies the process half: one worker
process per :func:`start_worker` call, answering task messages with its
operator's outputs; the partial pool (:mod:`repro.stream.helpers`) is
built from these workers.  Every task crosses the process boundary
pickled over the worker's pipe, a chunk's points included (one copy);
nothing is placed in shared memory, so no segment, and no resource
tracker process, can outlive the run.  A worker rebuilds its operator
from a picklable **spec** (an operator opts in by implementing
``to_spec()``); a spec-built clone must make ``process`` a pure function
of the item and the spec, which is what makes pooled runs bit-identical
to thread runs.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Protocol, runtime_checkable

from repro.stream.errors import WorkerCrashed
from repro.stream.metrics import WorkerProcessStats
from repro.stream.operators import Transform

__all__ = [
    "THREADS",
    "PROCESSES",
    "SHARDS",
    "BACKEND_ENV_VAR",
    "OperatorSpec",
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
    return "fork" if "fork" in get_all_start_methods() else "spawn"


@runtime_checkable
class OperatorSpec(Protocol):
    """Picklable recipe rebuilding one transform inside a worker process."""

    def build(self) -> Transform:
        """Construct the operator the worker will run."""
        ...


def supports_process_backend(operator: Any) -> bool:
    """Whether a worker can rebuild ``operator`` (it has ``to_spec``)."""
    return callable(getattr(operator, "to_spec", None))


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


def _worker_main(conn, parent_end: Any = None) -> None:
    """Worker process loop: build the operator, answer task messages.

    ``parent_end`` is a forked worker's copy of the parent's end of its
    own pipe.  It is closed first: while any copy of that end stays open,
    the worker never sees EOF when the parent dies, and would outlive it.

    Protocol (all messages are tuples; first element is the kind):

    * ``("init", spec)`` → ``("ready", pid)`` or ``("initerr", error)``
    * ``("item", item)`` → ``("ok", outputs, seconds)`` /
      ``("err", error, seconds)`` — the pickled task
    * ``("stop",)`` → ``("bye",)`` and exit
    """
    if parent_end is not None:
        parent_end.close()
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
        elif kind == "item":
            started = time.perf_counter()
            try:
                assert operator is not None, "task before init"
                outputs = list(operator.process(message[1]))
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

    One handle serves one caller at a time — the thread that took the
    worker from the pool — so it needs no locking.

    Attributes:
        name: the worker's label (``"pool#i"``).
        process: the :class:`multiprocessing.Process`.
        conn: parent end of the task pipe.
        stats: live accounting (shared with the execution metrics).
    """

    name: str
    process: Any
    conn: Any
    stats: WorkerProcessStats = field(default=None)  # type: ignore[assignment]

    def post(self, item: Any) -> None:
        """Send ``item`` (pickled, points and all) without waiting.

        Raises:
            OSError: the pipe is closed (the worker is gone).
        """
        self.conn.send(("item", item))
        points = getattr(item, "points", None)
        if points is not None:
            self.stats.bytes_shipped += points.nbytes

    def collect(self) -> list:
        """Wait for the reply to the last :meth:`post`: its outputs.

        Raises:
            WorkerCrashed: the worker died mid-task or its error could
                not be transferred.
            BaseException: whatever the remote operator raised, rebuilt
                locally with its original type.
        """
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(
                self.name, f"worker process died mid-task ({exc!r})"
            ) from exc
        if reply[0] == "ok":
            _, outputs, seconds = reply
            self.stats.items += len(outputs)
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
        name: the worker's label, used in diagnostics.
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
    forked = ctx.get_start_method() == "fork"
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn, parent_conn if forked else None),
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
