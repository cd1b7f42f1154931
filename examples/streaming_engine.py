"""Drive the stream engine directly: plan, clone, execute, inspect.

Shows the Conquest-style machinery underneath the high-level API:

1. build the logical scan -> partial -> merge dataflow for several cells,
2. let the planner clone the expensive partial operator,
3. execute, then read the per-operator metrics (utilization, queueing).

Run:  python examples/streaming_engine.py
"""

import numpy as np

from repro.core import Recipe
from repro.data import generate_cell_points
from repro.stream import (
    Executor,
    Planner,
    ResourceManager,
    build_partial_merge_graph,
)


def main() -> None:
    # Three grid cells of different sizes, like adjacent cells in a swath.
    cells = {
        f"lat{30 + i}lon-110": generate_cell_points(
            n_points, seed=100 + i
        )
        for i, n_points in enumerate((4_000, 8_000, 12_000))
    }

    # A deliberately tight memory budget: the source will derive several
    # chunks per cell instead of being told a fixed split.
    resources = ResourceManager(
        memory_budget_bytes=512 * 1024, worker_slots=6
    )
    per_chunk = resources.max_points_per_partition(dim=6)
    print(f"memory budget allows ~{per_chunk} points per partition\n")

    graph = build_partial_merge_graph(
        cells,
        k=24,
        recipe=Recipe(restarts=3, max_iter=100, merge_max_iter=100),
        resources=resources,
        seed=5,
    )
    plan = Planner(resources).plan(graph)
    print(plan.describe())
    print()

    outcome = Executor().run(plan)
    models = outcome.value

    for cell_id, model in sorted(models.items()):
        print(
            f"{cell_id}: {model.partitions} partitions, "
            f"k={model.k}, mse={model.mse:.2f}, "
            f"t={model.total_seconds:.2f}s"
        )
    print()
    print("\n".join(outcome.metrics.summary_lines()))

    queue_stats = outcome.metrics.queues["q->partial"]
    print(
        f"\nscan->partial queue: {queue_stats.puts} chunks, "
        f"high-water {queue_stats.high_water_mark}, "
        f"producer blocked {queue_stats.producer_block_seconds:.3f}s "
        f"(backpressure at work)"
    )


if __name__ == "__main__":
    main()
