"""Self-tests of the benchmark harness (not of the program under test).

Run explicitly — they are outside the tier-1 ``testpaths``:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
from harness import (  # noqa: E402
    Request,
    SpanLog,
    Tally,
    WatchdogExpired,
    leaked_resources,
    percentile,
    run_closed_loop,
    run_open_loop,
    truncate_journal,
    watchdog,
)


class FakeClock:
    """Virtual time: ``sleep`` advances it, nothing else does."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def done(value=None) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def schedule(count: int, rate: float, op: str = "assign") -> list[Request]:
    return [Request(i / rate, op, "cell") for i in range(count)]


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 95) == (95, 5)
    assert percentile(samples, 100) == (100, 0)
    assert percentile([7.0], 99) == (7.0, 0)
    # 200 samples carry p95 with ten beyond it; 100 samples do not.
    assert percentile(list(range(200)), 95)[1] == 10


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- open loop -------------------------------------------------------------------


def test_open_loop_counts_latency_from_the_due_time():
    clock = FakeClock()

    def slow_submit(request):
        clock.sleep(0.005)  # the generator itself takes 5 ms per request
        return done()

    # Due every 1 ms, but each submit costs 5 ms: the generator falls
    # behind, and the delay is charged to the requests, not hidden.
    log = run_open_loop(
        slow_submit, schedule(10, 1000.0), 0.01, clock=clock, sleep=clock.sleep
    )
    assert log.submitted == 10
    assert log.late[0] == 0.0 and log.latency[0] == pytest.approx(0.005)
    # Request 9 was due at 9 ms, submitted at 45 ms and answered at 50 ms.
    assert log.late[9] == pytest.approx(0.045 - 0.009)
    assert log.latency[9] == pytest.approx(0.050 - 0.009)
    assert log.achieved_rps() == pytest.approx(10 / 0.045)


def test_open_loop_keeps_its_schedule_when_the_server_stalls():
    clock = FakeClock()
    pending: list[Future] = []

    def stalled_submit(request):
        pending.append(Future())  # never answered
        return pending[-1]

    log = run_open_loop(
        stalled_submit,
        schedule(50, 1000.0),
        0.05,
        drain_timeout=0.05,
        clock=clock,
        sleep=clock.sleep,
    )
    # The backlog grew; the schedule did not slow.
    assert log.submitted == 50
    assert max(log.late) == pytest.approx(0.0, abs=1e-9)
    assert log.backlog_max == 50 and log.backlog_at_end == 50
    assert log.unfinished() == 50 and log.failures() == 50
    assert log.latencies(["assign"]) == []


def test_open_loop_against_a_threaded_fake_server():
    answered = []

    def submit(request):
        future: Future = Future()
        timer = threading.Timer(0.01, lambda: (answered.append(1), future.set_result("ok")))
        timer.start()
        return future

    log = run_open_loop(
        submit, schedule(20, 200.0), 0.1, keep=lambda request, answer: answer
    )
    assert log.failures() == 0 and len(answered) == 20
    assert all(outcome == "ok" for outcome in log.outcome)
    assert all(0.005 < latency < 0.5 for latency in log.latency)
    assert leaked_resources() == []


# -- failure counting ----------------------------------------------------------------


def test_failures_count_raised_refused_and_wrong():
    def submit(request):
        future: Future = Future()
        if request.op == "bad":
            future.set_exception(RuntimeError("refused"))
        else:
            future.set_result(1)
        return future

    requests = [Request(0.0, "ok", "c"), Request(0.0, "bad", "c"), Request(0.0, "ok", "c")]
    clock = FakeClock()
    log = run_open_loop(submit, requests, 0.0, clock=clock, sleep=clock.sleep)
    assert log.failures() == 1
    assert len(log.latencies(["ok", "bad"])) == 2  # failed requests have no latency

    tally = Tally()
    tally.ok()
    tally.fail("wrong answer")
    assert not tally.check(False, "mismatch")
    assert tally.check(True, "unused")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.reasons == ["wrong answer", "mismatch"]


def test_a_raising_keep_marks_the_request_failed():
    clock = FakeClock()

    def keep(request, answer):
        raise KeyError("missing field")

    log = run_open_loop(
        lambda r: done(), schedule(2, 10.0), 0.0, keep=keep, clock=clock, sleep=clock.sleep
    )
    assert log.failures() == 2


# -- closed loop ----------------------------------------------------------------------


def test_closed_loop_bounds_requests_in_flight():
    in_flight = 0
    peak = 0
    lock = threading.Lock()

    def submit(request):
        nonlocal in_flight, peak
        future: Future = Future()
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)

        def answer():
            nonlocal in_flight
            with lock:
                in_flight -= 1
            future.set_result(1)

        threading.Timer(0.002, answer).start()
        return future

    log = run_closed_loop(submit, schedule(10_000, 1.0), 0.2, in_flight=4)
    assert peak <= 4
    assert 0 < log.completed_in_window <= log.submitted < 10_000
    assert log.failures() == 0
    assert leaked_resources() == []


# -- journal tearing ---------------------------------------------------------------------


def test_truncate_journal_keeps_the_leading_share(tmp_path):
    journal = tmp_path / "journal.rjl"
    journal.write_bytes(bytes(range(200)) * 5)
    assert truncate_journal(journal, 0.5) == 500
    assert journal.read_bytes() == (bytes(range(200)) * 5)[:500]
    with pytest.raises(ValueError):
        truncate_journal(journal, 1.0)


# -- spans ---------------------------------------------------------------------------------


def test_span_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    spans = SpanLog(clock=clock)
    with spans.span("run"):
        clock.sleep(1.0)  # run's own time
        with spans.span("partial", cell="a", partition=0):
            clock.sleep(4.0)
        with spans.span("merge", cell="a"):
            clock.sleep(0.5)
            with spans.span("checkpoint.append"):
                clock.sleep(2.0)
            with spans.span("checkpoint.append"):
                clock.sleep(0.25)
    self_times = spans.self_times()
    assert self_times["run"] == pytest.approx(1.0)
    assert self_times["partial"] == pytest.approx(4.0)
    # merge lasted 2.75 s; its two appends took 2.0 s and 0.25 s of that.
    assert self_times["merge"] == pytest.approx(0.5)
    assert self_times["checkpoint.append"] == pytest.approx(2.25)
    assert sum(self_times.values()) == pytest.approx(spans.durations("run")[0])
    payload = spans.to_payload()
    assert payload[1] == {
        "name": "partial", "start": 101.0, "end": 105.0, "parent": 0,
        "cell": "a", "partition": 0,
    }
    assert payload[3]["parent"] == 2 and payload[4]["parent"] == 2


# -- process hygiene ----------------------------------------------------------------------------


def test_teardown_check_fires_on_a_leaked_thread():
    release = threading.Event()
    leaked = threading.Thread(target=release.wait, name="leaked-worker")
    leaked.start()
    try:
        assert leaked_resources(grace_seconds=0.1) == ["thread 'leaked-worker'"]
    finally:
        release.set()
        leaked.join(timeout=5.0)
    assert not leaked.is_alive()
    assert leaked_resources(grace_seconds=1.0) == []


def test_watchdog_interrupts_a_blocked_main_thread():
    began = time.monotonic()
    with pytest.raises(WatchdogExpired):
        with watchdog(0.1):
            threading.Event().wait(timeout=5.0)
    assert time.monotonic() - began < 2.0
    # Disarmed on exit: nothing fires later.
    with watchdog(5.0):
        pass
    time.sleep(0.05)


# -- compare ----------------------------------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(base, [10.3, 10.4, 10.2, 10.3, 10.5], "lower", 0.08) == "ok"
    assert compare.verdict(base, [11.5, 11.6, 11.4, 11.5, 11.7], "lower", 0.08) == "worse"
    assert compare.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2], "higher", 0.08) == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.08) == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert compare.verdict(noisy, [5.0, 7.0, 6.0, 7.5, 6.5], "lower", 0.08) == "ok"
    assert compare.spread([1.0]) == 0.0
