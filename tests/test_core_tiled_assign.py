"""The exact assignment pass works in tiles: same bits, bounded memory.

Every exact kernel scores at most ``_TILE_BYTES`` of its (points ×
centroids) distance matrix at a time.  These tests hold the tiled pass to
the untiled one — a single ``cdist`` over all rows, then the row
``argmin`` — bit for bit, at and around tile edges, hold one ``lloyd``
call to a working set of about the points themselves, and check that the
pass stays on the caller's thread and off BLAS.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core import kernels
from repro.core.kernels import DenseKernel, ElkanKernel, _tile_rows
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
    kernel.start(points)
    return kernel.assign(centroids)


def assert_same_pass(got, want):
    assert got[0].tobytes() == want[0].astype(np.intp).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize(
    "n", [TILE - 1, TILE, TILE + 1, 3 * TILE, 3 * TILE + 17]
)
@pytest.mark.parametrize("kernel", [DenseKernel, ElkanKernel])
def test_tiled_pass_equals_untiled(n, kernel):
    points, seeds = cell(n)
    want = untiled(points, seeds)
    assert_same_pass(one_pass(kernel(), points, seeds), want)
    assert_same_pass(assign_to_nearest(points, seeds), want)


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_run_equals_untiled_run(monkeypatch, seed):
    """A lloyd run with many small tiles has the bits of a one-tile run."""
    points, seeds = cell(7_777, seed=seed)
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


def test_ties_across_a_tile_boundary_keep_the_first_index(monkeypatch):
    """Equidistant centroids, duplicate rows cut by tile edges."""
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
    # 50-row tiles: tile edges fall inside runs of duplicates.
    monkeypatch.setattr(kernels, "_TILE_BYTES", 50 * K * 8)
    assert _tile_rows(K) == 50
    for kernel in (DenseKernel, ElkanKernel):
        assert_same_pass(one_pass(kernel(), points, grid), want)
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


def test_lloyd_peak_memory_is_about_the_points():
    """n = 100 000, k = 40, d = 6: the untiled pass peaked at 8.8x."""
    points, seeds = cell(100_000)
    peak = traced_peak(points, seeds, "dense")
    assert peak <= 2 * points.nbytes, peak / points.nbytes


def test_elkan_never_holds_an_n_by_k_matrix():
    """Its O(n) bounds state stays; the untiled passes peaked at 11x."""
    points, seeds = cell(100_000)
    peak = traced_peak(points, seeds, "elkan")
    assert peak < points.shape[0] * K * 8, peak / points.nbytes


def test_dense_run_starts_no_thread(monkeypatch):
    """A forced-dense run at n = 100 000, k = 40 scores on the caller only."""
    points, seeds = cell(100_000)
    before = threading.enumerate()
    scored_on = set()
    real = kernels.cdist

    def recording(*args, **kwargs):
        scored_on.add((threading.current_thread().name, threading.active_count()))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "cdist", recording)
    result = lloyd(points, seeds, max_iter=5, kernel="dense")
    assert result.kernel == "dense"
    assert scored_on == {(threading.current_thread().name, len(before))}
    assert threading.enumerate() == before


# ---------------------------------------------------------------------------
# The exact iteration uses no BLAS
# ---------------------------------------------------------------------------

_PROBE = """
import hashlib, json
import numpy as np
from repro.core.kmeans import lloyd
from repro.core.quality import sse
from repro.data.generator import generate_cell_points
points = generate_cell_points(75_000, seed=29, dim=6)
rng = np.random.default_rng(41)
seeds = points[rng.choice(75_000, size=40, replace=False)]
weights = rng.uniform(0.5, 2.0, size=75_000)
result = lloyd(points, seeds, max_iter=25, kernel="dense")
print(json.dumps({
    "sse": result.sse.hex(),
    "centroids": hashlib.sha256(result.centroids.tobytes()).hexdigest(),
    "iterations": result.iterations,
    "quality_sse": sse(points, seeds, weights).hex(),
}))
"""


def test_sse_bits_do_not_depend_on_blas_threads():
    src = str(Path(kernels.__file__).resolve().parents[2])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        env.pop("REPRO_KMEANS_KERNEL", None)
        done = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
