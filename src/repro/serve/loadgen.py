"""Deterministic load generator for :class:`~repro.serve.server.ClusterServer`.

Drives a running server with a configurable mix of ``assign`` /
``summary`` / ``window`` / ``ingest`` traffic from ``concurrency``
client threads and reports client-side latency percentiles, QPS and
the server's ingest update lag.  Each client thread draws its op
choices and query points from ``default_rng([seed, thread_index])``, so
a load run is reproducible up to thread scheduling — the *workload* is
deterministic even though interleaving is not.

Used by the ``repro serve --load-duration`` CLI mode, the serving
benchmark (``benchmarks/test_bench_serving.py`` → ``BENCH_serving.json``)
and the CI serving smoke job.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.registry import ServeError
from repro.serve.server import ClusterServer

__all__ = ["LoadGenerator", "LoadReport"]

#: Default traffic mix (weights are normalised; ops with weight 0 are
#: never issued).
DEFAULT_MIX = {
    "assign": 0.55,
    "summary": 0.20,
    "window": 0.15,
    "ingest": 0.10,
}


def _percentile_ms(latencies: list[float], q: float) -> float:
    """Ceil-rank percentile of a latency sample, in milliseconds."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank] * 1000.0


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load run.

    Attributes:
        duration_seconds: wall-clock of the run.
        concurrency: client threads used.
        total_requests: requests answered (including errors).
        errors: requests that raised.
        qps: ``total_requests / duration_seconds``.
        endpoints: per-endpoint client-side latency stats
            (``count``, ``mean_ms``, ``p50_ms``, ``p99_ms``).
        update_lag_ms: server-side ingest update lag percentiles
            (``p50`` / ``p99`` / ``max``), 0.0 when no ingest ran.
    """

    duration_seconds: float
    concurrency: int
    total_requests: int
    errors: int
    qps: float
    endpoints: dict
    update_lag_ms: dict

    def to_payload(self) -> dict:
        """JSON-safe representation for the bench ledger."""
        return {
            "duration_seconds": self.duration_seconds,
            "concurrency": self.concurrency,
            "total_requests": self.total_requests,
            "errors": self.errors,
            "qps": self.qps,
            "endpoints": self.endpoints,
            "update_lag_ms": self.update_lag_ms,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        lines = [
            f"load: {self.total_requests} requests over "
            f"{self.duration_seconds:.2f}s with {self.concurrency} "
            f"clients -> {self.qps:.0f} QPS ({self.errors} errors)"
        ]
        for name, stats in sorted(self.endpoints.items()):
            lines.append(
                f"  {name:>8}: {stats['count']:>6} reqs  "
                f"p50 {stats['p50_ms']:.2f} ms  "
                f"p99 {stats['p99_ms']:.2f} ms"
            )
        if self.update_lag_ms.get("p99", 0.0) > 0.0:
            lines.append(
                f"  update lag: p50 {self.update_lag_ms['p50']:.2f} ms  "
                f"p99 {self.update_lag_ms['p99']:.2f} ms"
            )
        return lines


class LoadGenerator:
    """Multi-threaded deterministic-workload client for a running server.

    Args:
        server: a started :class:`~repro.serve.server.ClusterServer`.
        cells: cell ids to spread traffic over (must be non-empty).
        seed: base seed; client thread ``i`` uses
            ``default_rng([seed, i])``.
        mix: op → weight; defaults to :data:`DEFAULT_MIX`.  Weights are
            normalised, so ``{"assign": 1}`` is an assign-only load.
        assign_points: query points per assign request.
        ingest_points: points per ingested chunk.
        dim: point dimensionality; inferred from the first populated
            cell's model when omitted (falls back to 2).
    """

    def __init__(
        self,
        server: ClusterServer,
        cells: list[str],
        seed: int = 0,
        mix: dict[str, float] | None = None,
        assign_points: int = 16,
        ingest_points: int = 64,
        dim: int | None = None,
    ) -> None:
        if not cells:
            raise ValueError("cells must be non-empty")
        chosen = dict(DEFAULT_MIX if mix is None else mix)
        unknown = set(chosen) - set(DEFAULT_MIX)
        if unknown:
            raise ValueError(
                f"unknown ops in mix: {sorted(unknown)}; "
                f"valid: {sorted(DEFAULT_MIX)}"
            )
        total = sum(chosen.values())
        if total <= 0:
            raise ValueError("mix weights must sum to > 0")
        self.server = server
        self.cells = list(cells)
        self.seed = seed
        self.assign_points = assign_points
        self.ingest_points = ingest_points
        self._ops = sorted(op for op, w in chosen.items() if w > 0)
        self._weights = np.array(
            [chosen[op] / total for op in self._ops], dtype=np.float64
        )
        self.dim = dim if dim is not None else self._infer_dim()

    def _infer_dim(self) -> int:
        for cell in self.cells:
            try:
                info = self.server.summary(cell)
            except ServeError:
                continue
            if info.model.k > 0:
                return int(info.model.centroids.shape[1])
        return 2

    # -- client loop ---------------------------------------------------------

    def _client(
        self,
        index: int,
        stop_at: float,
        latencies: dict[str, list[float]],
        counters: dict[str, int],
    ) -> None:
        rng = np.random.default_rng([self.seed, index])
        while time.perf_counter() < stop_at:
            op = self._ops[
                int(rng.choice(len(self._ops), p=self._weights))
            ]
            cell = self.cells[int(rng.integers(len(self.cells)))]
            began = time.perf_counter()
            try:
                if op == "assign":
                    points = rng.normal(
                        size=(self.assign_points, self.dim)
                    )
                    self.server.assign(cell, points)
                elif op == "summary":
                    self.server.summary(cell)
                elif op == "window":
                    self.server.window(cell, last_n=2)
                else:  # ingest
                    points = rng.normal(
                        size=(self.ingest_points, self.dim)
                    )
                    self.server.ingest(cell, points)
            except Exception:
                counters["errors"] += 1
            latencies[op].append(time.perf_counter() - began)

    def run(
        self, duration_seconds: float, concurrency: int = 4
    ) -> LoadReport:
        """Fire load for ``duration_seconds`` and return the report.

        Threads stop once the duration is up, after finishing their
        in-flight request, so the measured duration can slightly exceed
        the ask.
        """
        if duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be > 0, got {duration_seconds}"
            )
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        per_thread: list[dict[str, list[float]]] = []
        per_counters: list[dict[str, int]] = []
        threads: list[threading.Thread] = []
        began = time.perf_counter()
        stop_at = began + duration_seconds
        for index in range(concurrency):
            latencies: dict[str, list[float]] = {op: [] for op in self._ops}
            counters = {"errors": 0}
            per_thread.append(latencies)
            per_counters.append(counters)
            thread = threading.Thread(
                target=self._client,
                args=(index, stop_at, latencies, counters),
                name=f"loadgen-{index}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began

        merged: dict[str, list[float]] = {op: [] for op in self._ops}
        for latencies in per_thread:
            for op, values in latencies.items():
                merged[op].extend(values)
        endpoints = {
            op: {
                "count": len(values),
                "mean_ms": (
                    sum(values) / len(values) * 1000.0 if values else 0.0
                ),
                "p50_ms": _percentile_ms(values, 0.50),
                "p99_ms": _percentile_ms(values, 0.99),
            }
            for op, values in merged.items()
        }
        total = sum(stats["count"] for stats in endpoints.values())
        lag = self.server.metrics.update_lag
        update_lag_ms = {
            "p50": lag.percentile(50.0) * 1000.0,
            "p99": lag.percentile(99.0) * 1000.0,
            "max": lag.max_seconds * 1000.0,
        }
        return LoadReport(
            duration_seconds=elapsed,
            concurrency=concurrency,
            total_requests=total,
            errors=sum(c["errors"] for c in per_counters),
            qps=total / elapsed if elapsed > 0 else 0.0,
            endpoints=endpoints,
            update_lag_ms=update_lag_ms,
        )
