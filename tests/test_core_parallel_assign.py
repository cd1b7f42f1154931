"""The dense assignment pass on helper threads: same bits, no leaked threads.

``DenseKernel`` splits a pass of at least ``_SPLIT_MIN_PAIRS`` pairs into
contiguous row blocks scored on ``lloyd-assign`` helper threads, as many
as the process-wide budget grants.  These tests drive that budget through
``set_assign_helper_budget`` (the hook the worker bootstraps use) and hold
the split run to the serial one, output for output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core import kernels
from repro.core.convergence import MseDeltaCriterion
from repro.core.kernels import (
    DenseKernel,
    _SPLIT_MIN_PAIRS,
    assign_helper_budget,
)
from repro.core.kmeans import lloyd
from repro.data.generator import generate_cell_points
from repro.stream.items import DataChunk
from repro.stream.mp import start_worker
from repro.stream.operators import FunctionTransform

K = 40
#: The smallest point count whose pass splits at k = 40.
THRESHOLD_N = _SPLIT_MIN_PAIRS // K

#: Generous bound on any wait for another thread; never reached when the
#: code is right, it only turns a deadlock into a failure.
WAIT_S = 60.0


def assign_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("lloyd-assign")
    ]


def run_with_budget(budget, size, points, seeds, **kwargs):
    budget(size)
    return lloyd(points, seeds, kernel="dense", **kwargs)


def assert_same(ref, alt):
    assert alt.assignments.tobytes() == ref.assignments.tobytes()
    assert alt.centroids.tobytes() == ref.centroids.tobytes()
    assert alt.cluster_weights.tobytes() == ref.cluster_weights.tobytes()
    assert alt.sse.hex() == ref.sse.hex()
    assert alt.iterations == ref.iterations
    assert alt.converged == ref.converged
    assert (
        alt.counters.distance_evals_computed
        == ref.counters.distance_evals_computed
    )


def cell(n, seed=29):
    points = generate_cell_points(n, seed=seed, dim=6)
    seeds = points[np.random.default_rng(41).choice(n, size=K, replace=False)]
    return points, seeds


@pytest.mark.parametrize("n", [THRESHOLD_N - 1, THRESHOLD_N, THRESHOLD_N + 1, 7_777])
@pytest.mark.parametrize("helpers", [1, 3])
def test_split_equals_serial(budget, block_threads, n, helpers):
    points, seeds = cell(n)
    serial = run_with_budget(budget, 0, points, seeds, max_iter=25)
    assert set(block_threads) == {threading.current_thread().name}
    block_threads.clear()
    split = run_with_budget(budget, helpers, points, seeds, max_iter=25)
    assert_same(serial, split)
    helper_blocks = [name for name in block_threads if name.startswith("lloyd-assign")]
    if n < THRESHOLD_N:
        assert not helper_blocks
    else:
        # Every pass handed at least one block to a helper.
        assert len(helper_blocks) >= split.counters.assign_calls
    assert not assign_threads()


def test_ties_keep_the_first_index(budget, block_threads):
    """Duplicate points and equidistant centroids: argmin's first index."""
    lattice = np.array(
        [[x, y] for x in range(5) for y in range(5)], dtype=np.float64
    )
    points = np.repeat(lattice, 200, axis=0)  # 5 000 points, all duplicated
    # Centroids at the midpoints of the lattice edges: every point sits
    # at distance 0.5 from two to four of them.
    grid = np.array(
        [[x + 0.5, y] for x in range(4) for y in range(5)]
        + [[x, y + 0.5] for x in range(5) for y in range(4)],
        dtype=np.float64,
    )
    assert grid.shape[0] == K
    budget(1)
    kernel = DenseKernel()
    kernel.start(points, np.ones(points.shape[0]))
    try:
        assignments, sq_dists = kernel.assign(grid)
    finally:
        kernel.finish()
    assert any(name.startswith("lloyd-assign") for name in block_threads)
    full = cdist(points, grid, metric="sqeuclidean")
    assert np.all((full == full.min(axis=1, keepdims=True)).sum(axis=1) >= 2)
    assert assignments.tobytes() == np.argmin(full, axis=1).tobytes()
    expected_sq = full[np.arange(points.shape[0]), assignments]
    assert sq_dists.tobytes() == expected_sq.tobytes()
    # The whole run stays equal too, ties and all.
    serial = run_with_budget(budget, 0, points, grid)
    assert_same(serial, run_with_budget(budget, 1, points, grid))


def test_empty_cluster_repair_is_unchanged(budget):
    points, seeds = cell(6_000)
    seeds = seeds.copy()
    seeds[1] = seeds[0]  # a duplicated seed: cluster 1 starts empty
    seeds[2] = seeds[0]
    serial = run_with_budget(budget, 0, points, seeds, max_iter=25)
    split = run_with_budget(budget, 1, points, seeds, max_iter=25)
    assert_same(serial, split)
    assert np.all(split.cluster_weights > 0)


def test_elkan_still_equals_split_dense(budget):
    points, seeds = cell(12_000)
    dense = run_with_budget(budget, 1, points, seeds, max_iter=25)
    elkan = lloyd(points, seeds, max_iter=25, kernel="elkan")
    assert elkan.assignments.tobytes() == dense.assignments.tobytes()
    assert elkan.centroids.tobytes() == dense.centroids.tobytes()
    assert elkan.cluster_weights.tobytes() == dense.cluster_weights.tobytes()
    assert elkan.sse.hex() == dense.sse.hex()
    assert elkan.iterations == dense.iterations
    assert elkan.converged == dense.converged


# ---------------------------------------------------------------------------
# Thread lifecycle and the shared budget
# ---------------------------------------------------------------------------


class _RaisesOnThirdTest(MseDeltaCriterion):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def converged(self, prev_mse, cur_mse, shift):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("criterion failed mid-loop")
        return super().converged(prev_mse, cur_mse, shift)


def test_no_helper_survives_a_run_that_returns_or_raises(budget, block_threads):
    before = set(threading.enumerate())
    points, seeds = cell(8_000)
    budget(1)
    lloyd(points, seeds, max_iter=5, kernel="dense")
    assert any(name.startswith("lloyd-assign") for name in block_threads)
    assert not assign_threads()
    with pytest.raises(RuntimeError, match="mid-loop"):
        lloyd(points, seeds, criterion=_RaisesOnThirdTest(), kernel="dense")
    assert not assign_threads()
    assert set(threading.enumerate()) == before


def test_concurrent_runs_share_one_helper(budget, monkeypatch):
    """Budget 1, two runs at once: the second finds it spent, runs serially."""
    points, seeds = cell(8_000)
    serial = run_with_budget(budget, 0, points, seeds, max_iter=10)
    budget(1)

    parked = threading.Event()
    resume = threading.Event()
    second_run_blocks: list[str] = []
    real = kernels._assign_rows

    def parking(*args):
        name = threading.current_thread().name
        if name.startswith("lloyd-assign") and not parked.is_set():
            # The first run's helper holds the only slot and parks here.
            parked.set()
            assert resume.wait(WAIT_S)
        elif name != "first-run" and parked.is_set() and not resume.is_set():
            second_run_blocks.append(name)
        real(*args)

    monkeypatch.setattr(kernels, "_assign_rows", parking)
    results = {}

    def first():
        results["first"] = lloyd(points, seeds, max_iter=10, kernel="dense")

    runner = threading.Thread(target=first, name="first-run")
    runner.start()
    try:
        assert parked.wait(WAIT_S)
        second = lloyd(points, seeds, max_iter=10, kernel="dense")
    finally:
        resume.set()
        runner.join(WAIT_S)
    assert not runner.is_alive()
    # Every block of the second run was scored on its own thread.
    assert second_run_blocks
    assert set(second_run_blocks) == {threading.current_thread().name}
    assert_same(serial, second)
    assert_same(serial, results["first"])
    assert not assign_threads()


def test_budget_is_never_overdrawn_under_contention(budget, monkeypatch):
    """More runs than cores, fast switching: grants never exceed the budget."""
    points, seeds = cell(3_000)
    serial = run_with_budget(budget, 0, points, seeds, max_iter=5)
    budget(2)
    shared = kernels._ASSIGN_HELPERS
    peak = [0]
    real_acquire = shared.try_acquire

    def watched(want):
        granted = real_acquire(want)
        with shared._lock:
            peak[0] = max(peak[0], shared._in_use)
        return granted

    monkeypatch.setattr(shared, "try_acquire", watched)
    results: list = []
    threads = [
        threading.Thread(
            target=lambda: results.append(
                lloyd(points, seeds, max_iter=5, kernel="dense")
            ),
            name=f"contender-{i}",
        )
        for i in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    for result in results:
        assert_same(serial, result)
    assert 0 < peak[0] <= 2
    assert shared._in_use == 0
    assert not assign_threads()


class _BudgetProbeSpec:
    """Picklable spec whose worker answers with its helper budget."""

    def build(self):
        return FunctionTransform(
            "budget-probe", lambda item: [assign_helper_budget()]
        )


def test_process_workers_have_no_helper_budget(budget):
    budget(1)
    worker = start_worker(_BudgetProbeSpec(), name="budget-probe#0")
    try:
        chunk = DataChunk(cell_id="c", partition=0, points=np.zeros((2, 2)))
        assert worker.submit(chunk) == [0]
    finally:
        worker.shutdown()
    assert assign_helper_budget() == 1


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
