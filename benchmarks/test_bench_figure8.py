"""Benchmark: regenerate Figure 8 (partial k-means time, 5- vs 10-split).

Paper reference: partial-step time dominates the pipeline and grows with
N for both split counts; the 10-split curve sits below the 5-split curve
at large N because each chunk is smaller and Lloyd converges in fewer
iterations (the paper's I' << I argument).
"""

from __future__ import annotations

import numpy as np

from repro.core.partial import partial_kmeans
from repro.core.recipe import Recipe
from repro.data.generator import generate_cell_points
from repro.experiments.figures import figure8, render_figure


def test_bench_figure8(benchmark, grid_results):
    """Time one partial k-means chunk (the figure's unit of work)."""
    config = grid_results.config
    chunk = generate_cell_points(
        max(config.sizes[-1] // 10, config.k), seed=config.seed
    )

    benchmark.pedantic(
        lambda: partial_kmeans(
            chunk,
            config.k,
            Recipe(restarts=min(3, config.restarts), max_iter=config.max_iter),
            np.random.default_rng(0),
        ),
        rounds=1,
        iterations=1,
    )

    figure = figure8(grid_results)
    print()
    print(render_figure(figure))

    cases = sorted(figure.series, key=lambda c: int(c.replace("split", "")))
    fewer, more = cases[0], cases[-1]

    # Shape 1: partial time grows with N for both split counts.
    for case in (fewer, more):
        times = figure.series[case]
        assert times[-1] > times[0]

    # Shape 2: at the largest N, more splits cost no more partial time
    # (smaller chunks converge faster; paper's 10-split advantage).
    assert figure.series[more][-1] <= figure.series[fewer][-1] * 1.1
