"""End-to-end benchmark: disk -> partial/merge -> journal -> served query.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1

One workload per interpreter.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate run that
replays the same inputs stage by stage with spans around every call and
reports the per-layer metrics.  Every output is checked; the last line
of standard output is the JSON result.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repo")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np

import batch
import serve
from harness import (
    SpanLog,
    Tally,
    WatchdogExpired,
    leaked_resources,
    watchdog,
)
from repro.core.kmeans import lloyd
from repro.core.seeding import random_seeds

#: Knobs that would change what "default" means; the benchmark measures
#: what a user gets without them, so it refuses to run with any set.
REFUSED_ENV = (
    "REPRO_KMEANS_KERNEL",
    "REPRO_KMEANS_EXACT",
    "REPRO_STREAM_BACKEND",
    "REPRO_MP_CONTEXT",
)
#: ``--seconds`` the stage lengths below are written for.
NOMINAL_SECONDS = 40.0
BATCH_REPS = 4
#: Latency limit for reads beside ingests: twice the unloaded median.
MIXED_LIMIT_MS = 5.0
SETUP_REPS = 5
SERVE_ROUNDS = 3
NOMINAL_DURATIONS = serve.Durations(warm=0.3, base=2.0, hi=1.5, sat=0.0, mixed=4.0)
#: The traced run also makes the closed-loop saturation pass.
TRACED_DURATIONS = serve.Durations(warm=0.3, base=2.0, hi=1.5, sat=2.0, mixed=4.0)
WARMUP_DURATIONS = serve.Durations(warm=0.1, base=0.2, hi=0.2, sat=0.2, mixed=0.4)
#: A warm-up cell is cut to one large partition: enough to warm every
#: code path at the real shapes without a 75 000-point batch run.
WARMUP_CELL_POINTS = 25_000


@dataclass
class Inputs:
    """What set-up leaves for the timed stages."""

    cells: dict
    fresh: dict
    buckets: Path
    prepare_s: float


def scaled(durations: serve.Durations, scale: float) -> serve.Durations:
    return serve.Durations(
        warm=durations.warm,
        base=durations.base * scale,
        hi=durations.hi * scale,
        sat=durations.sat * scale,
        mixed=durations.mixed * scale,
    )


# -- set-up ---------------------------------------------------------------------------


def set_up(shape: batch.Shape, seed: int, work: Path) -> Inputs:
    """Seeded inputs on disk (timed), then an untimed warm-up pass.

    ``prepare_s`` is the fastest of ``SETUP_REPS`` complete input
    preparations: every cell generated from the seed, every ``.gbk``
    written.

    The first pass through the program after import runs 15-40 % slow
    (allocator, BLAS and thread-pool start-up), so before anything else
    is timed a slice of the inputs goes through the whole pipeline once.
    """
    prepare = []
    for attempt in range(SETUP_REPS):
        buckets = work / f"buckets{attempt}"
        began = time.perf_counter()
        cells, fresh = batch.make_cells(shape, seed)
        batch.write_buckets(buckets, cells)
        prepare.append(time.perf_counter() - began)
        if attempt + 1 < SETUP_REPS:
            shutil.rmtree(buckets)

    warm_cells = {
        key: points[:WARMUP_CELL_POINTS]
        for key, points in list(cells.items())[: shape.warmup_cells]
    }
    warm_buckets = work / "warm_buckets"
    batch.write_buckets(warm_buckets, warm_cells)
    ignored = Tally()
    warm = batch.run_rep(
        work / "warm", warm_buckets, warm_cells, shape, seed, ignored
    )
    rng = np.random.default_rng([seed, 0x3A23])
    serve.reads_round(warm.run_dir, work, warm_cells, rng, WARMUP_DURATIONS, ignored)
    serve.mixed_round(
        warm.run_dir, work, warm_cells, fresh, rng, WARMUP_DURATIONS, ignored
    )
    shutil.rmtree(warm.run_dir)
    shutil.rmtree(warm_buckets)
    return Inputs(cells, fresh, buckets, min(prepare))


# -- the untraced run: end-to-end metrics ------------------------------------------------


def best_round(phases: list, kind: str, q: float) -> float:
    """Percentile ``q`` of each round's latencies; the least disturbed round's."""
    return min(serve.quantile_ms(phase, kind, q)[0] for phase in phases)


def within(phases: list, limit_ms: float) -> float:
    """Share of the reads sent, over all rounds, answered within the limit."""
    met, sent = map(sum, zip(*(phase.reads_within(limit_ms) for phase in phases)))
    return met / sent


def run_untraced(shape, args, work: Path, tally: Tally, detail: dict) -> dict:
    scale = args.seconds / NOMINAL_SECONDS
    inputs = set_up(shape, args.seed, work)
    cells, fresh = inputs.cells, inputs.fresh
    began = time.perf_counter()
    oracle = batch.oracle_sse(cells, args.seed)
    setup_s = inputs.prepare_s + (time.perf_counter() - began)

    # Batch repetitions alternate with serve rounds, so that a slow spell
    # of the host shorter than the run cannot cover every repetition.
    reps = max(BATCH_REPS, round(BATCH_REPS * scale))
    durations = scaled(NOMINAL_DURATIONS, scale)
    runs, reads, mixed = [], [], []
    for index in range(max(reps, SERVE_ROUNDS)):
        if index < reps:
            if runs:
                shutil.rmtree(runs[-1].run_dir)
            runs.append(
                batch.run_rep(
                    work / f"batch{index}", inputs.buckets, cells, shape,
                    args.seed, tally,
                )
            )
        if index < SERVE_ROUNDS:
            journal = runs[-1].run_dir
            rng = np.random.default_rng([args.seed, 0x5E12, index])
            reads.append(
                serve.reads_round(journal, work, cells, rng, durations, tally)
            )
            mixed.append(
                serve.mixed_round(journal, work, cells, fresh, rng, durations, tally)
            )
    tally.check(
        len({run.digest for run in runs}) == 1,
        "model digests differ across repetitions",
    )
    base = [r["base"] for r in reads]
    hi = [r["hi"] for r in reads]
    wall_s = [run.wall_s for run in runs]
    resume_s = [run.resume_s for run in runs]
    detail.update(
        wall_s=wall_s,
        resume_s=resume_s,
        digest=runs[0].digest,
        phases={"base": base, "hi": hi, "mixed": mixed},
    )
    # Host noise here is one-sided (stalls and contention only add time),
    # so the fastest repetition / least disturbed round is the estimate
    # least contaminated by it; see README "Known noise sources".
    return {
        "setup_s": setup_s,
        "wall_s": min(wall_s),
        "resume_s": min(resume_s),
        "mse_ratio": batch.mse_ratio(runs[-1].models, cells, oracle),
        "peak_rss_mb": peak_rss_mb(),
        "read_p50_ms": best_round(base, "read_ms", 50),
        "read_p95_ms": best_round(base, "read_ms", 95),
        "read_hi_p50_ms": best_round(hi, "read_ms", 50),
        "read_hi_p95_ms": best_round(hi, "read_ms", 95),
        "mixed_read_p50_ms": best_round(mixed, "read_ms", 50),
        "mixed_read_under_5ms": within(mixed, MIXED_LIMIT_MS),
        "ingest_p50_ms": best_round(mixed, "ingest_ms", 50),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the traced run: per-layer metrics ------------------------------------------------------


def lloyd_ms(points: np.ndarray, seed: int, repeats: int, **kernel) -> float:
    """Median wall of one capped ``lloyd`` from fixed seeds."""
    seeds = random_seeds(points, batch.K, np.random.default_rng([seed, 0x10FD]))
    walls = []
    for _ in range(repeats):
        began = time.perf_counter()
        lloyd(points, seeds, max_iter=batch.MAX_ITER, **kernel)
        walls.append(time.perf_counter() - began)
    return median(walls) * 1e3


def run_traced(shape, args, work: Path, tally: Tally, detail: dict) -> dict:
    scale = args.seconds / NOMINAL_SECONDS
    seed = args.seed
    inputs = set_up(shape, seed, work)
    cells, fresh, buckets = inputs.cells, inputs.fresh, inputs.buckets
    out: dict[str, float] = {}

    # One engine run (and its resume) for the program's own counters.
    engine = batch.run_rep(work / "engine", buckets, cells, shape, seed, tally)
    metrics = engine.result.execution.metrics
    engine_wall = engine.wall_s

    # The same inputs, serially, with a span around every call.
    spans = SpanLog()
    staged_models = batch.staged_replay(buckets, work / "staged", shape, seed, spans)
    tally.check(
        batch.models_digest(staged_models) == engine.digest,
        "staged replay and engine run produced different models",
    )
    shutil.rmtree(work / "staged")
    self_times = spans.self_times()
    staged_wall = spans.durations("staged.run")[0]
    explained = 1.0 - self_times["staged.run"] / staged_wall
    tally.check(explained >= 0.90, f"spans explain only {explained:.1%} of staged wall")

    two = batch.run_rep(work / "clone2", buckets, cells, shape, seed, tally, clones=2)
    tally.check(two.digest == engine.digest, "two partial clones changed the models")
    shutil.rmtree(two.run_dir)

    partials = [s for s in spans.spans if s.name == "partial"]
    appends = spans.durations("checkpoint.append")
    bytes_read = sum(path.stat().st_size for path in buckets.glob("*.gbk"))
    out["gridio.scan_s"] = self_times["gridio.scan"]
    out["gridio.bytes_read"] = bytes_read
    out["gridio.scan_mb_per_s"] = bytes_read / 2**20 / self_times["gridio.scan"]
    scan_op = next(op for op in metrics.operators if op.name == "scan")
    out["file_source.chunks_out"] = scan_op.items_out
    out["file_source.busy_s"] = scan_op.busy_seconds

    # Kernels at the workload's modal partition shape.
    modal = next(
        points for points in cells.values() if points.shape[0] >= shape.partition_points
    )[: shape.partition_points]
    repeats = 3 if shape.partition_points > 5_000 else 9
    out["kernels.lloyd_ms_default"] = lloyd_ms(modal, seed, repeats)
    out["kernels.lloyd_ms_dense"] = lloyd_ms(modal, seed, repeats, kernel="dense")
    out["kernels.lloyd_ms_elkan"] = lloyd_ms(modal, seed, repeats, kernel="elkan")
    counters = metrics.kernel_counters
    computed = sum(c.get("distance_evals_computed", 0) for c in counters.values())
    skipped = sum(c.get("distance_evals_skipped", 0) for c in counters.values())
    out["kernels.dist_evals_computed"] = computed
    out["kernels.dist_evals_skipped"] = skipped
    out["kernels.skip_ratio"] = skipped / (computed + skipped)
    out["kmeans.iterations"] = sum(
        sum(model.extra["partial_iterations"]) + model.extra["merge_iterations"]
        for model in engine.models.values()
    )
    out["kmeans.ns_per_point_iter"] = (
        self_times["partial"]
        / sum(s.attrs["points"] * s.attrs["iterations"] for s in partials)
        * 1e9
    )

    # Seeding: the default strategy, once per restart of every partition.
    rng = np.random.default_rng([seed, 0x5EED])
    began = time.perf_counter()
    for _ in range(len(partials) * batch.RESTARTS):
        random_seeds(modal, batch.K, rng)
    out["seeding.busy_s"] = time.perf_counter() - began
    out["seeding.calls"] = len(partials) * batch.RESTARTS

    out["partial.calls"] = len(partials)
    out["partial.busy_s"] = self_times["partial"]
    out["partial.p50_ms"] = median([s.duration for s in partials]) * 1e3
    out["merge.calls"] = len(cells)
    out["merge.busy_s"] = self_times["merge"]
    out["merge.iterations"] = sum(
        model.extra["merge_iterations"] for model in engine.models.values()
    )

    read_s, journaled = batch.journal_read_seconds(engine.run_dir)
    resume_stats = engine.resume_stats
    out["checkpoint.records"] = len(appends)
    out["checkpoint.bytes"] = metrics.checkpoint.journal_bytes
    out["checkpoint.append_s"] = self_times["checkpoint.append"]
    out["checkpoint.append_p50_ms"] = median(appends) * 1e3
    out["checkpoint.read_s"] = read_s
    out["checkpoint.replayed_partitions"] = resume_stats.partitions_replayed
    out["checkpoint.recomputed_partitions"] = resume_stats.partitions_recomputed
    tally.check(
        journaled == len(partials), "journal does not hold one record per partition"
    )

    queues = metrics.queues.values()
    out["queues.producer_block_s"] = sum(q.producer_block_seconds for q in queues)
    out["queues.consumer_block_s"] = sum(q.consumer_block_seconds for q in queues)
    out["queues.high_water"] = max(q.high_water_mark for q in queues)

    def operators(logical):
        return [
            op
            for op in metrics.operators
            if op.name == logical or op.name.startswith(logical + "#")
        ]

    out["executor.partial_busy_s"] = metrics.busy_seconds_for("partial")
    out["executor.partial_idle_s"] = sum(op.idle_seconds for op in operators("partial"))
    out["executor.merge_busy_s"] = metrics.busy_seconds_for("merge")
    out["executor.merge_idle_s"] = sum(op.idle_seconds for op in operators("merge"))
    out["executor.overhead_s"] = engine_wall - staged_wall
    out["executor.clone2_speedup"] = engine_wall / two.wall_s
    out["executor.explained_ratio"] = explained
    out["trace.overhead_ratio"] = staged_wall / engine_wall

    # Serve layers: direct calls, then one round through the server.
    rng = np.random.default_rng([seed, 0x5E12, 0])
    durations = scaled(TRACED_DURATIONS, scale)
    direct = serve.direct_probes(engine.run_dir, work, cells, fresh, rng)
    direct_read_p50 = direct.pop("direct_read_p50_ms")
    out.update(direct)
    reads = serve.reads_round(engine.run_dir, work, cells, rng, durations, tally)
    mixed = serve.mixed_round(
        engine.run_dir, work, cells, fresh, rng, durations, tally
    )
    base, hi = reads["base"], reads["hi"]
    base_p50 = serve.quantile_ms(base, "read_ms", 50)[0]
    base_p95 = serve.quantile_ms(base, "read_ms", 95)[0]
    out["coreset.cache_hits"] = (
        base.counts["window_cached"] + hi.counts["window_cached"]
    )
    out["batching.mean_batch"] = hi.counts["requests"] / hi.counts["groups"]
    out["batching.batches"] = hi.counts["groups"]
    out["batching.window_wait_ms"] = base_p50 - direct_read_p50
    out["server.queue_wait_ms"] = serve.quantile_ms(mixed, "read_ms", 95)[0] - base_p95
    out["server.lat_p99_ms"] = serve.quantile_ms(base, "read_ms", 99)[0]
    out["server.ingest_p90_ms"] = serve.quantile_ms(mixed, "ingest_ms", 90)[0]
    out["server.mixed_read_p95_ms"] = serve.quantile_ms(mixed, "read_ms", 95)[0]
    out["server.drain_s"] = hi.drain_s
    out["server.sat_rps"] = reads["sat_rps"]
    out["server.slo_rate_rps"] = serve.slo_rate(
        engine.run_dir, work, cells, rng, max(0.5, scale)
    )
    out["server.dispatch_busy_ratio"] = mixed.counts["ingest_busy_s"] / mixed.seconds
    out["loadgen.late_p99_ms"] = max(p.late_p99_ms for p in (base, hi, mixed))
    out["loadgen.achieved_rps"] = base.achieved_rps

    detail.update(
        spans=spans.to_payload(),
        engine_wall_s=engine_wall,
        staged_wall_s=staged_wall,
        shares={name: value / staged_wall for name, value in self_times.items()},
        phases={"base": [base], "hi": [hi], "mixed": [mixed]},
    )
    return out


# -- command line -----------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(batch.SHAPES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--json",
        type=Path,
        help="append this run (metrics, phases, spans) as one JSON line; "
        "a file of such lines is a set for compare.py",
    )
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def report_phases(detail: dict) -> list[dict]:
    """Print every serve phase's sample counts and generator honesty."""
    rows = []
    for name, phases in detail.get("phases", {}).items():
        for index, phase in enumerate(phases):
            p50, n, _ = serve.quantile_ms(phase, "read_ms", 50)
            p95, _, beyond = serve.quantile_ms(phase, "read_ms", 95)
            row = {
                "phase": name,
                "round": index,
                "n": n,
                "p50_ms": p50,
                "p95_ms": p95,
                "p95_beyond": beyond,
                "ingests": len(phase.ingest_ms),
                "failures": phase.failures,
                "late_p99_ms": phase.late_p99_ms,
                "achieved_rps": phase.achieved_rps,
                "backlog_at_end": phase.backlog_at_end,
                "disturbed": phase.disturbed,
            }
            rows.append(row)
            print(
                f"  {name:<5} round {index}: n={n:<5} p50={p50:.2f}ms p95={p95:.2f}ms "
                f"(beyond {beyond}) late_p99={phase.late_p99_ms:.2f}ms "
                f"achieved={phase.achieved_rps:.1f}/s"
                + ("  DISTURBED" if phase.disturbed else "")
            )
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    blocked = [name for name in REFUSED_ENV if name in os.environ]
    if blocked:
        print(f"refusing to run with {', '.join(blocked)} set", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    shape = batch.SHAPES[args.workload]
    work = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    detail: dict = {}
    values: dict[str, float] = {}
    runner = run_traced if args.trace else run_untraced
    try:
        # Three times the expected duration, inside the driver's 180 s.
        with watchdog(min(170.0, 3.0 * (args.seconds + 15.0))):
            values = runner(shape, args, work, tally, detail)
    except WatchdogExpired as expired:
        tally.fail(str(expired))
    except Exception as error:
        # Still report (as failed) and still tear down.
        traceback.print_exc()
        tally.fail(f"workload aborted: {error!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    leaks = leaked_resources()
    for leak in leaks:
        tally.fail(f"left behind: {leak}")
    missing = sorted(set(units) - set(values))
    if missing and not tally.failed:
        tally.fail(f"metrics not produced: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in ("wall_s", "resume_s"):
        if name in detail:
            print(f"  {name} per rep: " + " ".join(f"{v:.3f}" for v in detail[name]))
    for name in units:
        if name in values:
            print(f"  {name:<36} {values[name]:>14.6g} {units[name]}")
    if "phases" in detail:
        detail["phases"] = report_phases(detail)
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
            if name in values
        },
    }
    if args.json is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            **result,
            "metrics": {name: float(value) for name, value in values.items()},
            "detail": detail,
        }
        with open(args.json, "a") as handle:
            handle.write(json.dumps(record, default=float) + "\n")
    print(json.dumps(result))
    # A leaked non-daemon thread would block interpreter exit forever.
    sys.stdout.flush()
    if leaks:
        os._exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
