"""Execution traces: JSON export and ASCII Gantt rendering.

Two consumers:

* engineers debugging a plan — dump an
  :class:`~repro.stream.metrics.ExecutionMetrics` to JSON and diff runs,
* the distributed simulator — render a
  :class:`~repro.stream.distributed.SimReport` schedule as a Gantt chart
  so placement and idle gaps are visible in a terminal.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.stream.distributed import SimReport
from repro.stream.metrics import (
    ExecutionMetrics,
    ServingMetrics,
    WorkerProcessStats,
)

__all__ = [
    "metrics_to_dict",
    "dump_metrics_json",
    "serving_to_dict",
    "dump_serving_json",
    "render_gantt",
]


def _worker_to_dict(worker: WorkerProcessStats) -> dict:
    return {
        "name": worker.name,
        "pid": worker.pid,
        "items": worker.items,
        "partitions": worker.partitions,
        "restart_batches": worker.restart_batches,
        "busy_seconds": worker.busy_seconds,
        "spawn_seconds": worker.spawn_seconds,
        "bytes_shipped": worker.bytes_shipped,
    }


def metrics_to_dict(metrics: ExecutionMetrics) -> dict:
    """Convert execution metrics to a JSON-safe dictionary."""
    payload = {
        "wall_seconds": metrics.wall_seconds,
        "backend": metrics.backend,
        "pool": [_worker_to_dict(worker) for worker in metrics.pool],
        "pool_skipped": metrics.pool_skipped,
        "shards": [
            {
                "name": shard.name,
                "pid": shard.pid,
                "cells_owned": shard.cells_owned,
                "cells_completed": shard.cells_completed,
                "partitions_computed": shard.partitions_computed,
                "partitions_replayed": shard.partitions_replayed,
                "heartbeats": shard.heartbeats,
                "respawns": shard.respawns,
                "lost_reason": shard.lost_reason,
            }
            for shard in metrics.shards
        ],
        "recoveries": [
            {
                "worker_name": event.worker_name,
                "reason": event.reason,
                "cells_reassigned": event.cells_reassigned,
                "cells_degraded": event.cells_degraded,
                "replayed_records": event.replayed_records,
                "recovery_seconds": event.recovery_seconds,
            }
            for event in metrics.recoveries
        ],
        "operators": [
            {
                "name": op.name,
                "items_in": op.items_in,
                "items_out": op.items_out,
                "busy_seconds": op.busy_seconds,
                "wall_seconds": op.wall_seconds,
                "utilization": op.utilization,
                "retries": op.retries,
                "restarts": op.restarts,
                "degraded_items": op.degraded_items,
                "lost_items": list(op.lost_items),
                "quarantined_files": list(op.quarantined_files),
                "incomplete_cells": list(op.incomplete_cells),
                "kernel_counters": dict(op.kernel_counters),
                "tree_stats": dict(op.tree_stats),
            }
            for op in metrics.operators
        ],
        "kernel_counters": metrics.kernel_counters,
        "tree_stats": metrics.tree_stats,
        "resilience": {
            "total_retries": metrics.total_retries,
            "total_restarts": metrics.total_restarts,
            "total_degraded": metrics.total_degraded,
            "lost_partitions": metrics.lost_partitions,
            "injected_faults": metrics.injected_faults,
            "quarantined_files": metrics.quarantined_files,
            "incomplete_cells": metrics.incomplete_cells,
            "total_reassignments": metrics.total_reassignments,
            "total_replayed_records": metrics.total_replayed_records,
        },
        "queues": {
            name: {
                "puts": stats.puts,
                "gets": stats.gets,
                "high_water_mark": stats.high_water_mark,
                "producer_block_seconds": stats.producer_block_seconds,
                "consumer_block_seconds": stats.consumer_block_seconds,
            }
            for name, stats in metrics.queues.items()
        },
        "stalls": [
            {
                "waited_seconds": stall.waited_seconds,
                "suspects": list(stall.suspects),
                "policies": dict(stall.policies),
                "queue_depths": dict(stall.queue_depths),
                "thread_stacks": dict(stall.thread_stacks),
            }
            for stall in metrics.stalls
        ],
    }
    if metrics.checkpoint is not None:
        cp = metrics.checkpoint
        payload["checkpoint"] = {
            "journal_path": cp.journal_path,
            "partitions_replayed": cp.partitions_replayed,
            "partitions_recomputed": cp.partitions_recomputed,
            "cells_replayed": cp.cells_replayed,
            "journal_bytes": cp.journal_bytes,
            "recovery_seconds": cp.recovery_seconds,
            "resumed": cp.resumed,
        }
    return payload


def dump_metrics_json(metrics: ExecutionMetrics, path: str | Path) -> Path:
    """Write execution metrics as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(metrics_to_dict(metrics), indent=2))
    return target


def serving_to_dict(
    metrics: ServingMetrics, registry_stats: dict | None = None
) -> dict:
    """Convert serving metrics (plus optional registry counters) to JSON.

    The payload mirrors :func:`metrics_to_dict`'s role for batch runs:
    one diffable document per serving session, with per-endpoint
    latency percentiles, QPS and ingest update lag.
    """
    payload = metrics.snapshot()
    if registry_stats is not None:
        payload["registry"] = dict(registry_stats)
    return payload


def dump_serving_json(
    metrics: ServingMetrics,
    path: str | Path,
    registry_stats: dict | None = None,
) -> Path:
    """Write serving metrics as pretty-printed JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(serving_to_dict(metrics, registry_stats), indent=2)
    )
    return target


_KIND_MARKS = {"partial": "#", "merge": "M", "transfer": "-", "broadcast": "B"}


def render_gantt(report: SimReport, width: int = 72) -> str:
    """ASCII Gantt chart of a simulated schedule.

    One row per machine; time flows left to right across ``width``
    columns.  Marks: ``#`` compute, ``M`` merge, ``-`` transfer,
    ``B`` broadcast; later events overwrite earlier ones per column.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    if not report.events:
        return "(empty schedule)"
    span = max(report.makespan_seconds, 1e-9)
    machines = sorted({event.machine for event in report.events})
    rows = {machine: [" "] * width for machine in machines}

    for event in sorted(report.events, key=lambda e: e.start):
        row = rows[event.machine]
        start_col = int(event.start / span * (width - 1))
        end_col = max(start_col + 1, int(event.end / span * (width - 1)))
        mark = _KIND_MARKS.get(event.kind, "?")
        for col in range(start_col, min(end_col, width)):
            row[col] = mark

    name_width = max(len(machine) for machine in machines)
    lines = [
        f"Gantt — makespan {report.makespan_seconds:.3f}s "
        f"({report.network_bytes / 1e6:.1f} MB on the network)"
    ]
    for machine in machines:
        lines.append(f"{machine:>{name_width}} |{''.join(rows[machine])}|")
    lines.append(
        " " * name_width
        + "  0"
        + " " * (width - 8)
        + f"{report.makespan_seconds:.2f}s"
    )
    lines.append(
        " " * name_width + "  legend: # partial  M merge  - transfer  B broadcast"
    )
    return "\n".join(lines)
