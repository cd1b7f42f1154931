"""The exact assignment pass works in tiles: same bits, bounded memory.

Every exact kernel scores at most ``_TILE_BYTES`` of its (points ×
centroids) distance matrix at a time.  These tests hold the tiled pass to
the untiled one — a single ``cdist`` over all rows, then the row
``argmin`` — bit for bit, at and around tile edges, and hold one ``lloyd``
call to a working set of about the points themselves.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core import kernels
from repro.core.kernels import (
    DenseKernel,
    ElkanKernel,
    _tile_rows,
    assign_helper_budget,
)
from repro.core.kmeans import lloyd
from repro.core.quality import assign_to_nearest
from repro.data.generator import generate_cell_points

K = 40
#: Rows in one full tile at k = 40.
TILE = _tile_rows(K)


def untiled(points, centroids):
    """The reference: one full ``(n, k)`` matrix, first-index ``argmin``."""
    d2 = cdist(points, centroids, metric="sqeuclidean")
    assignments = np.argmin(d2, axis=1)
    return assignments, d2[np.arange(points.shape[0]), assignments]


def cell(n, seed=29):
    points = generate_cell_points(n, seed=seed, dim=6)
    seeds = points[np.random.default_rng(41).choice(n, size=K, replace=False)]
    return points, seeds


def one_pass(kernel, points, centroids):
    kernel.start(points, np.ones(points.shape[0]))
    try:
        return kernel.assign(centroids)
    finally:
        kernel.finish()


def assert_same_pass(got, want):
    assert got[0].tobytes() == want[0].astype(np.intp).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize(
    "n", [TILE - 1, TILE, TILE + 1, 3 * TILE, 3 * TILE + 17]
)
@pytest.mark.parametrize("kernel", [DenseKernel, ElkanKernel])
def test_tiled_pass_equals_untiled(budget, n, kernel):
    budget(0)
    points, seeds = cell(n)
    want = untiled(points, seeds)
    assert_same_pass(one_pass(kernel(), points, seeds), want)
    assert_same_pass(assign_to_nearest(points, seeds), want)


def test_helper_blocks_need_not_start_on_a_tile_edge(budget, block_threads):
    n = 2 * TILE + 1_000  # two blocks of TILE + 500 rows
    points, seeds = cell(n)
    budget(1)
    got = one_pass(DenseKernel(), points, seeds)
    assert any(name.startswith("lloyd-assign") for name in block_threads)
    assert len(block_threads) == 2
    assert_same_pass(got, untiled(points, seeds))


@pytest.mark.parametrize("helpers", [0, 1])
def test_whole_run_equals_untiled_run(budget, monkeypatch, helpers):
    """A lloyd run with many small tiles has the bits of a one-tile run."""
    points, seeds = cell(7_777)
    budget(helpers)
    monkeypatch.setattr(kernels, "_TILE_BYTES", 1 << 40)
    ref = {name: lloyd(points, seeds, max_iter=25, kernel=name)
           for name in ("dense", "elkan")}
    monkeypatch.setattr(kernels, "_TILE_BYTES", 997 * K * 8)
    for name, want in ref.items():
        got = lloyd(points, seeds, max_iter=25, kernel=name)
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.cluster_weights.tobytes() == want.cluster_weights.tobytes()
        assert got.sse.hex() == want.sse.hex()
        assert got.iterations == want.iterations
        assert (
            got.counters.distance_evals_computed
            == want.counters.distance_evals_computed
        )


def test_ties_across_a_tile_boundary_keep_the_first_index(
    budget, block_threads, monkeypatch
):
    """Equidistant centroids, duplicate rows cut by tile and block edges."""
    lattice = np.array(
        [[x, y] for x in range(5) for y in range(5)], dtype=np.float64
    )
    points = np.repeat(lattice, 107, axis=0)  # runs of 107 identical rows
    grid = np.array(
        [[x + 0.5, y] for x in range(4) for y in range(5)]
        + [[x, y + 0.5] for x in range(5) for y in range(4)],
        dtype=np.float64,
    )
    full = cdist(points, grid, metric="sqeuclidean")
    assert np.all((full == full.min(axis=1, keepdims=True)).sum(axis=1) >= 2)
    want = untiled(points, grid)
    # 50-row tiles: tile edges fall inside runs of duplicates, and the
    # helper's block starts mid-run and mid-tile (row 1 337).
    monkeypatch.setattr(kernels, "_TILE_BYTES", 50 * K * 8)
    assert _tile_rows(K) == 50
    for helpers in (0, 1):
        budget(helpers)
        for kernel in (DenseKernel, ElkanKernel):
            assert_same_pass(one_pass(kernel(), points, grid), want)
    assert any(name.startswith("lloyd-assign") for name in block_threads)
    assert_same_pass(assign_to_nearest(points, grid), want)


def test_elkan_survivor_rescans_are_tiled(monkeypatch):
    """Survivor rows re-scored in several tiles keep elkan equal to dense."""
    points, seeds = cell(6_000)
    monkeypatch.setattr(kernels, "_TILE_BYTES", 64 * K * 8)
    refreshed: list[int] = []
    real = ElkanKernel._refresh_survivor_bounds

    def recording(self, rows_d2t, survivors):
        refreshed.append(survivors.size)
        real(self, rows_d2t, survivors)

    monkeypatch.setattr(ElkanKernel, "_refresh_survivor_bounds", recording)
    dense = lloyd(points, seeds, max_iter=25, kernel="dense")
    elkan = lloyd(points, seeds, max_iter=25, kernel="elkan")
    # Survivor passes filled several full 64-row tiles, none more.
    assert refreshed.count(64) >= 3
    assert max(refreshed) == 64
    assert elkan.assignments.tobytes() == dense.assignments.tobytes()
    assert elkan.centroids.tobytes() == dense.centroids.tobytes()
    assert elkan.sse.hex() == dense.sse.hex()
    assert elkan.iterations == dense.iterations


def traced_peak(points, seeds, kernel):
    tracemalloc.start()
    try:
        lloyd(points, seeds, max_iter=5, kernel=kernel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lloyd_peak_memory_is_about_the_points(budget):
    """n = 100 000, k = 40, d = 6: the untiled pass peaked at 8.8x.

    A pass holds one tile per thread, so at most one helper is allowed:
    the bound then holds on any host, and with no helper at all under a
    one-CPU affinity.
    """
    budget(min(assign_helper_budget(), 1))
    points, seeds = cell(100_000)
    peak = traced_peak(points, seeds, "dense")
    assert peak <= 2 * points.nbytes, peak / points.nbytes


def test_elkan_never_holds_an_n_by_k_matrix():
    """Its O(n) bounds state stays; the untiled passes peaked at 11x."""
    points, seeds = cell(100_000)
    peak = traced_peak(points, seeds, "elkan")
    assert peak < points.shape[0] * K * 8, peak / points.nbytes
