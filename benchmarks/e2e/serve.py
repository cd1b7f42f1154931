"""Serve stages: the batch stage's journal -> warm registry -> served queries.

One *round* is a fresh ``ModelRegistry`` + ``ClusterServer`` (library
defaults: 2 ms batch window, 32-request batches, 2 query workers) on a
pristine copy of the journal, driven by the open-loop generator in
``harness``: a reads-only server sees the base rate, the high rate and a
closed-loop saturation pass; a second server sees reads with inline
ingests beside them.  Every answer is checked after its phase.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np
from scipy.spatial.distance import cdist

from batch import DIM, FRESH_POINTS, K
from harness import (
    PhaseLog,
    Request,
    Tally,
    percentile,
    quiet_gc,
    run_closed_loop,
    run_open_loop,
)
from repro.core.incremental import fold_summary
from repro.serve.registry import ModelRegistry
from repro.serve.server import ClusterServer
from repro.stream.checkpoint import JOURNAL_FILENAME, JournalWriter, read_journal
from repro.stream.coreset import CoresetTree

ASSIGN_POINTS = 128
WINDOW_CHUNKS = 2
READ_MIX = {"assign": 0.70, "summary": 0.15, "window": 0.15}
#: 8 % ingests of ~13 ms each keep the dispatcher ~15 % busy.
MIXED_MIX = {"assign": 0.67, "summary": 0.10, "window": 0.15, "ingest": 0.08}
READ_OPS = ("assign", "summary", "window")
BASE_RATE = 300
HI_RATE = 2_000
MIXED_RATE = 150
IN_FLIGHT = 64
#: A phase whose generator ran this late (p99) measured the host, not
#: the server; it is flagged, never dropped.
DISTURBED_LATE_MS = 5.0
SLO_RATES = (150, 300, 600, 1_200, 2_000, 4_000)
SLO_P95_MS = 10.0


@dataclass(frozen=True)
class Durations:
    """Seconds per phase (scaled from ``--seconds`` by the caller)."""

    warm: float
    base: float
    hi: float
    sat: float
    mixed: float


# -- seeded request schedules ---------------------------------------------------------


def make_requests(
    rng: np.random.Generator,
    cells: dict[str, np.ndarray],
    mix: dict[str, float],
    count: int,
    rate: float,
    fresh: dict[str, np.ndarray] | None = None,
) -> list[Request]:
    """``count`` requests, evenly spaced at ``rate``, ops and cells seeded.

    Assign payloads are 128 consecutive rows of the target cell (a view:
    nothing is copied on the generator's thread); ingest payloads are
    the cell's 1 000 ``fresh`` points (new draws from its mixture that
    the batch stage never saw), jittered so that no two chunks are equal.
    """
    keys = list(cells)
    ops = list(mix)
    op_draw = rng.choice(len(ops), size=count, p=[mix[op] for op in ops])
    cell_draw = rng.integers(len(keys), size=count)
    requests = []
    for index in range(count):
        op = ops[op_draw[index]]
        key = keys[cell_draw[index]]
        points = cells[key]
        payload: dict = {}
        if op == "assign":
            start = int(rng.integers(points.shape[0] - ASSIGN_POINTS + 1))
            payload = {"points": points[start : start + ASSIGN_POINTS]}
        elif op == "window":
            payload = {"last_n": WINDOW_CHUNKS}
        elif op == "ingest":
            jitter = rng.normal(scale=0.01, size=fresh[key].shape)
            payload = {"points": fresh[key] + jitter}
        requests.append(Request(index / rate, op, key, payload))
    return requests


def keep_answer(request: Request, answer) -> object:
    """What verification needs of an answer (runs on a server thread)."""
    if request.op == "assign":
        return answer.assignments, answer.model_version
    if request.op == "summary":
        model = answer.model
        return (
            model.centroids.shape == (K, DIM)
            and bool(np.isfinite(model.centroids).all())
            and float(model.weights.sum()) > 0.0
        )
    if request.op == "window":
        finite = bool(np.isfinite(answer.model.centroids).all())
        return finite, answer.cached
    if request.op == "ingest":
        return answer
    return None


# -- verification -----------------------------------------------------------------------


def _answered(log: PhaseLog, index: int, tally: Tally, label: str) -> bool:
    """Whether request ``index`` got an answer; counts it failed if not."""
    request = log.requests[index]
    if log.latency[index] is None:
        tally.fail(f"{label}: {request.op} never completed")
    elif log.error[index] is not None:
        tally.fail(f"{label}: {request.op} raised {log.error[index]!r}")
    else:
        return True
    return False


def verify_reads(
    log: PhaseLog, registry: ModelRegistry, tally: Tally, label: str
) -> None:
    """One operation per request; assigns re-done by brute force.

    Only valid while no ingest runs: every assign must carry the model
    version of the summary it is checked against.
    """
    by_cell: dict[str, list[int]] = {}
    for index in range(log.submitted):
        request = log.requests[index]
        if not _answered(log, index, tally, label):
            continue
        if request.op == "assign":
            by_cell.setdefault(request.cell, []).append(index)
        elif request.op == "summary":
            tally.check(log.outcome[index], f"{label}: malformed summary")
        else:
            tally.check(log.outcome[index][0], f"{label}: non-finite window model")
    for key, indices in by_cell.items():
        summary = registry.summary(key)
        centroids = summary.model.centroids
        for index in indices:
            assignments, version = log.outcome[index]
            distances = cdist(
                log.requests[index].payload["points"], centroids, "sqeuclidean"
            )
            chosen = distances[np.arange(ASSIGN_POINTS), assignments]
            # A different argmin is right only on an exact-to-rounding tie.
            right = bool(np.all(chosen <= distances.min(axis=1) * (1 + 1e-9) + 1e-12))
            tally.check(
                right and version == summary.partitions,
                f"{label}: assign for {key} disagrees with brute force",
            )


def verify_mixed(
    log: PhaseLog, base_partitions: dict[str, int], tally: Tally
) -> None:
    """One operation per request; ingest receipts contiguous per cell."""
    expected = dict(base_partitions)
    for index in range(log.submitted):
        request = log.requests[index]
        if not _answered(log, index, tally, "mixed"):
            continue
        if request.op != "ingest":
            tally.ok()
            continue
        receipt = log.outcome[index]
        want = expected[request.cell]
        expected[request.cell] = want + 1
        tally.check(
            receipt.partition == want
            and receipt.model_version == want + 1
            and receipt.n_points == FRESH_POINTS,
            f"mixed: receipt for {request.cell} is partition "
            f"{receipt.partition}, expected {want}",
        )


def verify_reopen(live: dict, run_dir: Path, tally: Tally) -> None:
    """A fresh registry on the journal serves the live server's last bits."""
    with ModelRegistry(run_dir, k=K, fsync=True) as reopened:
        for key, model in live.items():
            again = reopened.summary(key).model
            tally.check(
                np.array_equal(again.centroids, model.centroids)
                and np.array_equal(again.weights, model.weights),
                f"mixed: reopened registry differs for {key}",
            )


# -- phase summaries ---------------------------------------------------------------------


@dataclass
class Phase:
    """What one load phase measured, reduced to what the metrics need."""

    read_ms: list[float]
    ingest_ms: list[float]
    late_ms: list[float]
    failures: int
    achieved_rps: float
    backlog_at_end: int
    drain_s: float
    seconds: float
    reads_sent: int
    #: ``ServingMetrics`` deltas and other counts taken around the phase.
    counts: dict

    @staticmethod
    def of(log: PhaseLog, **counts) -> "Phase":
        return Phase(
            read_ms=[value * 1e3 for value in log.latencies(READ_OPS)],
            ingest_ms=[value * 1e3 for value in log.latencies(("ingest",))],
            late_ms=[value * 1e3 for value in log.late],
            failures=log.failures(),
            achieved_rps=log.achieved_rps(),
            backlog_at_end=log.backlog_at_end,
            drain_s=log.drain_seconds,
            seconds=log.seconds,
            reads_sent=sum(
                1 for i in range(log.submitted) if log.requests[i].op in READ_OPS
            ),
            counts=counts,
        )

    @property
    def late_p99_ms(self) -> float:
        return percentile(self.late_ms, 99)[0] if self.late_ms else 0.0

    @property
    def disturbed(self) -> bool:
        return self.late_p99_ms > DISTURBED_LATE_MS

    def reads_within(self, limit_ms: float) -> tuple[int, int]:
        """``(reads answered within the limit, reads sent)``; a failed
        or unanswered read misses any limit."""
        return sum(1 for v in self.read_ms if v <= limit_ms), self.reads_sent


def quantile_ms(phase: Phase, kind: str, q: float) -> tuple[float, int, int]:
    """Percentile ``q`` of one kind of latency (``read_ms`` / ``ingest_ms``).

    Returns ``(value_ms, samples, samples_beyond)``.
    """
    samples = getattr(phase, kind)
    value, beyond = percentile(samples, q)
    return value, len(samples), beyond


def snapshot_delta(before: dict, after: dict) -> dict:
    """Requests and dispatched groups between two ``ServingMetrics`` snapshots."""
    requests = groups = 0
    for name, stats in after["endpoints"].items():
        earlier = before["endpoints"].get(name, {"requests": 0, "batches": 0})
        requests += stats["requests"] - earlier["requests"]
        groups += stats["batches"] - earlier["batches"]
    return {"requests": requests, "groups": groups}


# -- rounds -----------------------------------------------------------------------------


def _fresh_copy(journal_dir: Path, target: Path) -> Path:
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(journal_dir, target)
    return target


def _open_loop(server, rng, cells, mix, rate, seconds, fresh=None) -> PhaseLog:
    requests = make_requests(rng, cells, mix, int(rate * seconds), rate, fresh)
    with quiet_gc():
        return run_open_loop(
            lambda r: server.submit(r.op, r.cell, **r.payload),
            requests,
            seconds,
            keep=keep_answer,
        )


def reads_round(
    journal_dir: Path,
    work: Path,
    cells: dict[str, np.ndarray],
    rng: np.random.Generator,
    durations: Durations,
    tally: Tally,
) -> dict:
    """Warm-up, base rate and high rate on one reads-only server.

    Returns the ``base`` and ``hi`` :class:`Phase`, and ``sat_rps`` from
    a closed-loop saturation pass when ``durations.sat`` is not 0.
    """
    run_dir = _fresh_copy(journal_dir, work / "serve_reads")
    server = ClusterServer(ModelRegistry(run_dir, k=K, fsync=True))
    out: dict = {}
    try:
        server.start()
        _open_loop(server, rng, cells, READ_MIX, BASE_RATE, durations.warm)
        for name, rate, seconds in (
            ("base", BASE_RATE, durations.base),
            ("hi", HI_RATE, durations.hi),
        ):
            before = server.metrics.snapshot()
            log = _open_loop(server, rng, cells, READ_MIX, rate, seconds)
            counts = snapshot_delta(before, server.metrics.snapshot())
            counts["window_cached"] = sum(
                1
                for i in range(log.submitted)
                if log.requests[i].op == "window"
                and log.error[i] is None
                and log.outcome[i] is not None
                and log.outcome[i][1]
            )
            out[name] = Phase.of(log, **counts)
            verify_reads(log, server.registry, tally, name)

        if durations.sat > 0:
            # More requests than the pass can finish at any plausible rate.
            pool = make_requests(
                rng, cells, READ_MIX, int(20_000 * durations.sat) + IN_FLIGHT, 1.0
            )
            with quiet_gc():
                log = run_closed_loop(
                    lambda r: server.submit(r.op, r.cell, **r.payload),
                    pool,
                    durations.sat,
                    IN_FLIGHT,
                    keep=keep_answer,
                )
            out["sat_rps"] = log.completed_in_window / durations.sat
            verify_reads(log, server.registry, tally, "sat")
    finally:
        server.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return out


def mixed_round(
    journal_dir: Path,
    work: Path,
    cells: dict[str, np.ndarray],
    fresh: dict[str, np.ndarray],
    rng: np.random.Generator,
    durations: Durations,
    tally: Tally,
) -> Phase:
    """Reads with inline ingests beside them, on a pristine journal copy.

    ``counts["ingest_busy_s"]`` is the dispatcher time the ingests took
    (partial k-means + journal + fold, from their receipts).
    """
    run_dir = _fresh_copy(journal_dir, work / "serve_mixed")
    server = ClusterServer(ModelRegistry(run_dir, k=K, fsync=True))
    registry = server.registry
    live: dict = {}
    try:
        try:
            server.start()
            _open_loop(server, rng, cells, READ_MIX, BASE_RATE, durations.warm)
            base_partitions = {key: registry.summary(key).partitions for key in cells}
            log = _open_loop(
                server, rng, cells, MIXED_MIX, MIXED_RATE, durations.mixed, fresh
            )
            busy = sum(
                log.outcome[i].partial_seconds + log.outcome[i].fold_seconds
                for i in range(log.submitted)
                if log.requests[i].op == "ingest"
                and log.error[i] is None
                and log.outcome[i] is not None
            )
            phase = Phase.of(log, ingest_busy_s=busy)
            verify_mixed(log, base_partitions, tally)
            live = {key: registry.summary(key).model for key in cells}
        finally:
            server.close()
        verify_reopen(live, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return phase


def slo_rate(
    journal_dir: Path,
    work: Path,
    cells: dict[str, np.ndarray],
    rng: np.random.Generator,
    seconds: float,
) -> float:
    """Highest fixed read rate with p95 within the limit and no backlog left.

    Quantised to ``SLO_RATES`` and measured over short phases, so it is
    informational; 0 when even the lowest rate misses.
    """
    run_dir = _fresh_copy(journal_dir, work / "serve_slo")
    server = ClusterServer(ModelRegistry(run_dir, k=K, fsync=True))
    best = 0.0
    try:
        server.start()
        _open_loop(server, rng, cells, READ_MIX, BASE_RATE, min(seconds, 0.5))
        for rate in SLO_RATES:
            phase = Phase.of(
                _open_loop(server, rng, cells, READ_MIX, rate, seconds)
            )
            # "No backlog left": at most a batch window's worth in flight.
            settled = phase.backlog_at_end <= max(IN_FLIGHT, rate * 0.01)
            p95 = quantile_ms(phase, "read_ms", 95)[0]
            if phase.failures or p95 > SLO_P95_MS or not settled:
                break
            best = float(rate)
    finally:
        server.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return best


# -- direct (no server) layer probes ------------------------------------------------------


def _median_ms(samples: list[float]) -> float:
    return median(samples) * 1e3 if samples else 0.0


def direct_probes(
    journal_dir: Path,
    work: Path,
    cells: dict[str, np.ndarray],
    fresh: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> dict:
    """Time the registry, tree, fold and journal append called directly."""
    out: dict = {}
    warm = []
    for attempt in range(3):
        run_dir = _fresh_copy(journal_dir, work / "serve_direct")
        began = time.perf_counter()
        registry = ModelRegistry(run_dir, k=K, fsync=True)
        warm.append(time.perf_counter() - began)
        if attempt < 2:
            registry.close()
    out["registry.warm_start_s"] = median(warm)
    try:
        timings: dict[str, list[float]] = {op: [] for op in READ_OPS}
        seen_window: set[str] = set()
        for request in make_requests(rng, cells, READ_MIX, 600, 1.0):
            if request.op == "window":
                # Only the first window query of a cell runs a merge.
                if request.cell in seen_window:
                    continue
                seen_window.add(request.cell)
            call = getattr(registry, request.op)
            began = time.perf_counter()
            call(request.cell, **request.payload)
            timings[request.op].append(time.perf_counter() - began)
        out["registry.assign_us"] = _median_ms(timings["assign"]) * 1e3
        out["registry.summary_us"] = _median_ms(timings["summary"]) * 1e3
        out["registry.window_ms"] = _median_ms(timings["window"])
        out["direct_read_p50_ms"] = _median_ms(sum(timings.values(), []))

        walls, partial, fold = [], [], []
        for request in make_requests(rng, cells, {"ingest": 1.0}, 12, 1.0, fresh):
            began = time.perf_counter()
            receipt = registry.ingest(request.cell, **request.payload)
            walls.append(time.perf_counter() - began)
            partial.append(receipt.partial_seconds)
            fold.append(receipt.fold_seconds)
        out["registry.ingest_ms"] = _median_ms(walls)
        out["registry.ingest_partial_ms"] = _median_ms(partial)
        out["registry.ingest_fold_ms"] = _median_ms(fold)
    finally:
        registry.close()

    state = read_journal(run_dir / JOURNAL_FILENAME)
    shutil.rmtree(run_dir, ignore_errors=True)
    messages = [
        by_partition[index]
        for by_partition in state.partitions.values()
        for index in sorted(by_partition)
    ][:200]

    scratch = work / "serve_scratch.rjl"
    appends = []
    with JournalWriter(scratch, fsync=True) as writer:
        for message in messages[:20]:
            began = time.perf_counter()
            writer.append_partition(message)
            appends.append(time.perf_counter() - began)
    scratch.unlink()
    out["registry.ingest_journal_ms"] = _median_ms(appends)

    offers, queries, folds = [], [], []
    trees: dict[str, CoresetTree] = {}
    for message in messages:
        tree = trees.setdefault(message.cell_id, CoresetTree(k=K))
        began = time.perf_counter()
        tree.offer(message)
        offers.append(time.perf_counter() - began)
    for tree in list(trees.values())[:50]:
        began = time.perf_counter()
        tree.query_window(WINDOW_CHUNKS)
        queries.append(time.perf_counter() - began)
    models = list(state.cells.items())[:20]
    for (key, model), message in zip(models, messages):
        began = time.perf_counter()
        fold_summary(model, message.summary)
        folds.append(time.perf_counter() - began)
    out["coreset.offer_ms"] = sum(offers) / len(offers) * 1e3 if offers else 0.0
    out["coreset.window_query_ms"] = _median_ms(queries)
    out["incremental.fold_ms"] = _median_ms(folds)
    return out
