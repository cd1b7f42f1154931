"""Measurement helpers shared by the end-to-end benchmark's stages.

Everything here is benchmark-side and knows nothing about the program
under test: percentiles, in-memory spans with self-time arithmetic, the
open-loop and closed-loop request drivers (which take any
``submit(request) -> Future`` callable, so the self-tests drive them
against a fake server), journal tearing, operation tallies, and the
process-hygiene checks run before exit.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "percentile",
    "Span",
    "SpanLog",
    "Tally",
    "Request",
    "PhaseLog",
    "run_open_loop",
    "run_closed_loop",
    "quiet_gc",
    "truncate_journal",
    "leaked_resources",
    "WatchdogExpired",
    "watchdog",
]


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile ``q`` (0-100) and the samples beyond it.

    Returns ``(value, beyond)`` where ``beyond`` counts the samples
    strictly above the chosen rank — the guide's "highest percentile
    that has at least ten samples beyond it" is checked against it.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- spans ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval at a layer boundary.

    ``parent`` is the index of the span that caused this one (``None``
    for a root); ``attrs`` carries the cell / partition identifiers and
    any counts recorded at the same boundary.
    """

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory and written out when the benchmark ends.

    Single-threaded by design: the staged replay that records spans runs
    serially, so the innermost open span is the parent of the next one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, self._clock(), math.nan, parent, dict(attrs))
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Σ self time per span name: duration minus direct children."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.duration
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_total):
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.duration - children
            )
        return totals

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_payload(self) -> list[dict[str, Any]]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **s.attrs,
            }
            for s in self.spans
        ]


# -- failure counting -------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted against operations failed, refused or wrong."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return bool(condition)


# -- request drivers ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``offset`` seconds into its phase."""

    offset: float
    op: str
    cell: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class PhaseLog:
    """What one load phase observed, indexed like its request list.

    ``latency[i]`` is counted from the request's *due* time to its
    completion (``None`` while unfinished), ``due[i]`` is that due time
    in seconds since the phase started, ``late[i]`` is how long after it
    the generator managed to submit, ``outcome[i]`` is whatever the
    ``keep`` callable extracted from the answer, and ``error[i]`` the
    exception a failed request raised.
    """

    requests: Sequence[Request]
    seconds: float
    latency: list[float | None]
    due: list[float]
    late: list[float]
    outcome: list[Any]
    error: list[BaseException | None]
    drain_seconds: float = 0.0
    backlog_at_end: int = 0
    backlog_max: int = 0
    completed_in_window: int = 0

    @property
    def submitted(self) -> int:
        return len(self.late)

    def unfinished(self) -> int:
        return sum(1 for i in range(self.submitted) if self.latency[i] is None)

    def failures(self) -> int:
        """Requests that raised or never completed."""
        return self.unfinished() + sum(
            1 for i in range(self.submitted) if self.error[i] is not None
        )

    def latencies(self, ops: Sequence[str]) -> list[float]:
        """Completed, successful latencies (seconds) of the given ops."""
        wanted = set(ops)
        return [
            self.latency[i]
            for i in range(self.submitted)
            if self.requests[i].op in wanted
            and self.latency[i] is not None
            and self.error[i] is None
        ]

    def achieved_rps(self) -> float:
        """Submissions per second, over however long submitting really took."""
        if not self.late:
            return 0.0
        return self.submitted / max(self.seconds, self.due[-1] + self.late[-1])


class _Collector:
    """Completion bookkeeping shared by both drivers (callback side)."""

    def __init__(
        self,
        log: PhaseLog,
        clock: Callable[[], float],
        keep: Callable[[Request, Any], Any] | None,
    ) -> None:
        self.log = log
        self.clock = clock
        self.keep = keep
        self.lock = threading.Lock()
        self.done = 0
        self.idle = threading.Event()
        self.idle.set()
        self.issued = 0

    def watch(self, index: int, due: float, future: Future) -> None:
        with self.lock:
            self.issued += 1
            self.idle.clear()

        def finished(fut: Future, index=index, due=due) -> None:
            now = self.clock()
            error = fut.exception()
            outcome = None
            if error is None and self.keep is not None:
                try:
                    outcome = self.keep(self.log.requests[index], fut.result())
                except Exception as exc:  # a keep() bug must not kill a server thread
                    error = exc
            self.log.error[index] = error
            self.log.outcome[index] = outcome
            self.log.latency[index] = now - due
            with self.lock:
                self.done += 1
                if self.done == self.issued:
                    self.idle.set()

        future.add_done_callback(finished)

    def backlog(self) -> int:
        with self.lock:
            return self.issued - self.done


@contextmanager
def quiet_gc() -> Iterator[None]:
    """Collect now, then keep the cyclic collector off for the block.

    A generation-2 pass over a phase's ~10^5 request objects stalls every
    thread for tens of milliseconds — a pause of the harness's own
    making that would land in the tail latencies it is measuring.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _new_log(requests: Sequence[Request], seconds: float) -> PhaseLog:
    n = len(requests)
    return PhaseLog(
        requests=requests,
        seconds=seconds,
        latency=[None] * n,
        due=[],
        late=[],
        outcome=[None] * n,
        error=[None] * n,
    )


def run_open_loop(
    submit: Callable[[Request], Future],
    requests: Sequence[Request],
    seconds: float,
    keep: Callable[[Request, Any], Any] | None = None,
    drain_timeout: float = 10.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> PhaseLog:
    """Send ``requests`` on their schedule, whatever the server does.

    The caller's thread is the one generator: it *sleeps* until each
    request is due (a spinning generator would hold the GIL and inflate
    the very latencies it measures), submits, and moves on — a slow
    server grows a backlog instead of slowing the schedule.  Latency is
    counted from the due time, so a generator that runs late charges the
    delay to the request rather than hiding it.
    """
    log = _new_log(requests, seconds)
    collector = _Collector(log, clock, keep)
    started = clock()
    for index, request in enumerate(requests):
        due = started + request.offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        log.due.append(request.offset)
        log.late.append(clock() - due)
        collector.watch(index, due, submit(request))
        log.backlog_max = max(log.backlog_max, collector.backlog())
    end_of_schedule = started + seconds
    wait = end_of_schedule - clock()
    if wait > 0:
        sleep(wait)
    log.backlog_at_end = collector.backlog()
    collector.idle.wait(timeout=drain_timeout)
    log.drain_seconds = max(0.0, clock() - end_of_schedule)
    return log


def run_closed_loop(
    submit: Callable[[Request], Future],
    requests: Sequence[Request],
    seconds: float,
    in_flight: int,
    keep: Callable[[Request, Any], Any] | None = None,
    drain_timeout: float = 10.0,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseLog:
    """Keep ``in_flight`` requests outstanding for ``seconds`` (saturation).

    Requests are taken in order from ``requests`` (which must be long
    enough not to run out); each completion frees a slot for the next.
    ``completed_in_window`` counts answers that arrived before the
    window closed — throughput is that over ``seconds``.
    """
    log = _new_log(requests, seconds)
    collector = _Collector(log, clock, keep)
    slots = threading.Semaphore(in_flight)
    started = clock()
    deadline = started + seconds
    for index, request in enumerate(requests):
        remaining = deadline - clock()
        if remaining <= 0 or not slots.acquire(timeout=remaining):
            break
        now = clock()
        if now >= deadline:
            break
        future = submit(request)
        log.due.append(now - started)
        log.late.append(0.0)
        collector.watch(index, now, future)
        future.add_done_callback(lambda _f: slots.release())
    log.backlog_at_end = collector.backlog()
    collector.idle.wait(timeout=drain_timeout)
    log.drain_seconds = max(0.0, clock() - deadline)
    log.completed_in_window = sum(
        1
        for i in range(log.submitted)
        if log.latency[i] is not None
        and log.error[i] is None
        and log.due[i] + log.latency[i] <= seconds
    )
    return log


# -- journal tearing -----------------------------------------------------------------


def truncate_journal(path: str | Path, fraction: float = 0.5) -> int:
    """Tear the journal's tail: keep the first ``fraction`` of its bytes.

    Returns the new size.  The cut almost never falls on a record
    boundary, which is the point — recovery must cope with a torn write.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    target = Path(path)
    keep = int(target.stat().st_size * fraction)
    with open(target, "r+b") as handle:
        handle.truncate(keep)
    return keep


# -- process hygiene -------------------------------------------------------------------


def _child_pids() -> list[int]:
    pids: list[int] = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue  # the task exited between glob and read
    return pids


def leaked_resources(grace_seconds: float = 2.0) -> list[str]:
    """Threads, child processes and child pids still alive; [] when clean.

    Gives stragglers a short grace period first: a thread-pool worker
    that has been told to stop may need a scheduler tick to exit.
    """
    deadline = time.monotonic() + grace_seconds
    while True:
        leaks = [
            f"thread {t.name!r}"
            for t in threading.enumerate()
            if t is not threading.main_thread()
        ]
        leaks += [
            f"child process {p.pid}" for p in multiprocessing.active_children()
        ]
        if os.path.isdir("/proc/self/task"):
            leaks += [f"child pid {pid}" for pid in _child_pids()]
        if not leaks or time.monotonic() >= deadline:
            return leaks
        time.sleep(0.05)


class WatchdogExpired(Exception):
    """The workload ran past its allowance and was aborted."""


@contextmanager
def watchdog(seconds: float) -> Iterator[None]:
    """Abort the main thread with :class:`WatchdogExpired` after ``seconds``.

    Signal-based (``SIGALRM``), so it starts no thread of its own and a
    main thread blocked in a lock or join is still interrupted.
    """

    def expire(signum, frame):
        raise WatchdogExpired(f"workload exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
