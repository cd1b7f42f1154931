"""Benchmark: coreset-tree prefix queries vs full re-merges.

The tree's reason to exist (ISSUE 6): answering "cluster everything seen
so far" mid-stream by re-clustering the O(log P) cached tree roots
instead of re-merging all P partition summaries from scratch.  This
benchmark quantifies that trade on a realistic partition stream and
writes ``BENCH_prefix.json`` at the repository root:

* **latency** — cold query (result cache cleared, covers re-merged) and
  warm query (cache hit) vs the full ``merge_kmeans`` over all P
  summaries, min-of-repeats on both sides;
* **speed-up gate** — cold query >= 10x faster than the full re-merge at
  P >= 64 partitions;
* **quality** — SSE of the coreset answer on the raw points, relative to
  the one-shot exact merge (the approximation the millisecond answer
  costs); recorded, and loosely gated so a quality collapse fails loudly;
* **window** — sliding-window ("last N chunks") query latency, the
  O(log N) re-merge path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.merge import merge_kmeans
from repro.core.partial import partial_kmeans
from repro.core.quality import sse
from repro.core.recipe import Recipe
from repro.data.generator import generate_cell_points
from repro.stream.coreset import CoresetTree
from repro.stream.items import CentroidMessage

_REPO_ROOT = Path(__file__).resolve().parent.parent

_K = 8
_DIM = 4
_RESTARTS = 2
_POINTS_PER_CHUNK = 400
#: Partition counts; 64 = power of two (single root, best case for the
#: tree), 96 = two roots (64 + 32), the general case.  The >= 10x
#: acceptance gate applies to every row with >= 64 partitions.
_PARTITION_COUNTS = (16, 64, 96)
_REPEATS = 5
_WINDOW = 8


def _build_stream(n_partitions):
    """Partition summaries and raw points for one simulated cell."""
    rng = np.random.default_rng(163)
    chunks = []
    summaries = []
    for partition in range(n_partitions):
        chunk = generate_cell_points(
            _POINTS_PER_CHUNK, seed=500 + partition, dim=_DIM
        )
        chunks.append(chunk)
        summaries.append(
            partial_kmeans(
                chunk,
                _K,
                Recipe(restarts=_RESTARTS),
                rng,
                source=f"bench/P{partition}",
            ).summary
        )
    return np.vstack(chunks), summaries


def _min_seconds(fn, repeats=_REPEATS):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return value, best


def test_bench_prefix_query(benchmark):
    """Tree query vs full re-merge across P; write BENCH_prefix.json."""
    rows = []
    flagship_row = None
    for n_partitions in _PARTITION_COUNTS:
        points, summaries = _build_stream(n_partitions)
        messages = [
            CentroidMessage(
                cell_id="bench",
                partition=index,
                summary=summary,
                n_partitions=n_partitions,
            )
            for index, summary in enumerate(summaries)
        ]

        tree = CoresetTree(k=_K)
        ingest_started = time.perf_counter()
        for message in messages:
            tree.offer(message)
        ingest_seconds = time.perf_counter() - ingest_started

        # Baseline: the engine's one-shot exact merge over all P
        # summaries — what answering a mid-stream query costs without
        # the tree.
        full_result, full_seconds = _min_seconds(
            lambda: merge_kmeans(list(summaries), _K)
        )

        # Cold query: clear the result cache each repeat so every run
        # re-merges the O(log P) cover nodes.
        def cold_query():
            tree._query_cache.clear()
            return tree.query_prefix()

        cold_answer, cold_seconds = _min_seconds(cold_query)
        if n_partitions == max(_PARTITION_COUNTS):
            # The flagship cold query is the benchmarked measurement.
            cold_answer = benchmark.pedantic(
                cold_query, rounds=1, iterations=1
            )

        # Warm query: same prefix again, answered from the cache.
        _, warm_seconds = _min_seconds(lambda: tree.query_prefix())
        warm_answer = tree.query_prefix()
        assert warm_answer.cached

        # Sliding window: last _WINDOW chunks only.
        def window_query():
            tree._query_cache.clear()
            return tree.query_window(_WINDOW)

        window_answer, window_seconds = _min_seconds(window_query)

        exact_sse = sse(points, full_result.model.centroids)
        tree_sse = sse(points, cold_answer.model.centroids)
        quality_ratio = tree_sse / exact_sse
        speedup = full_seconds / max(cold_seconds, 1e-12)

        row = {
            "partitions": n_partitions,
            "points": int(points.shape[0]),
            "tree_nodes": tree.n_nodes,
            "tree_depth": tree.depth,
            "nodes_reused_by_query": cold_answer.nodes_reused,
            "ingest_seconds": ingest_seconds,
            "full_remerge_seconds": full_seconds,
            "cold_query_seconds": cold_seconds,
            "warm_query_seconds": warm_seconds,
            "window": _WINDOW,
            "window_query_seconds": window_seconds,
            "window_nodes_reused": window_answer.nodes_reused,
            "speedup_cold_vs_full": speedup,
            "sse_exact_merge": exact_sse,
            "sse_tree_query": tree_sse,
            "sse_ratio": quality_ratio,
        }
        rows.append(row)
        if n_partitions == max(_PARTITION_COUNTS):
            flagship_row = row

        print()
        print(
            f"P={n_partitions}: full={full_seconds * 1e3:.2f}ms "
            f"cold={cold_seconds * 1e3:.3f}ms ({speedup:.1f}x) "
            f"warm={warm_seconds * 1e6:.1f}us "
            f"window={window_seconds * 1e3:.3f}ms "
            f"sse_ratio={quality_ratio:.4f}"
        )

        # Mass conservation: the coreset answer carries every point.
        assert cold_answer.model.total_weight == float(points.shape[0])
        # The acceptance gate: >= 10x at >= 64 partitions.
        if n_partitions >= 64:
            assert speedup >= 10.0, row
        # The cover must be logarithmic, not linear, in P.
        assert cold_answer.nodes_reused <= max(
            1, int(np.ceil(np.log2(n_partitions + 1)))
        )
        # Quality guard: the hierarchical answer may differ from the
        # one-shot merge, but a collapse (>2x SSE) means the tree is
        # broken, not approximate.
        assert quality_ratio < 2.0, row
        # Warm queries are pure cache hits — strictly cheaper than cold.
        assert warm_seconds <= cold_seconds

    assert flagship_row is not None
    payload = {
        "k": _K,
        "dim": _DIM,
        "restarts": _RESTARTS,
        "points_per_chunk": _POINTS_PER_CHUNK,
        "repeats": _REPEATS,
        "flagship_partitions": flagship_row["partitions"],
        "flagship_speedup": flagship_row["speedup_cold_vs_full"],
        "flagship_sse_ratio": flagship_row["sse_ratio"],
        "rows": rows,
    }
    (_REPO_ROOT / "BENCH_prefix.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
