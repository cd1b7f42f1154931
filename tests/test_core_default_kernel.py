"""The default kernel is a size rule: same bits, either side of it.

With no kernel named and ``REPRO_KMEANS_KERNEL`` unset, ``lloyd`` runs
``elkan`` when its passes score at least ``_BOUNDS_MIN_PAIRS`` (point,
centroid) pairs and ``dense`` below.  These tests hold the default run
to forced ``dense`` bit for bit on both sides of the constant, check
that a named kernel still wins, that a default-kernel checkpointed plan
resumes to the forced-``dense`` digest, and that a default run stays in
the memory bound ``dense`` meets.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import (
    KERNEL_ENV_VAR,
    DenseKernel,
    ElkanKernel,
    resolve_kernel,
)
from repro.core.kmeans import lloyd
from repro.core.seeding import kmeans_parallel_seeds
from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_dir
from repro.stream.checkpoint import JOURNAL_FILENAME, read_journal
from repro.stream.query import Query

THRESHOLD = kernels._BOUNDS_MIN_PAIRS


@pytest.fixture(autouse=True)
def no_env_kernel(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)


def cell(n: int, k: int, seed: int = 29):
    points = generate_cell_points(n, seed=seed, dim=6)
    seeds = points[np.random.default_rng(41).choice(n, size=k, replace=False)]
    return points, seeds


def assert_same_run(got, want):
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert got.cluster_weights.tobytes() == want.cluster_weights.tobytes()
    assert got.sse.hex() == want.sse.hex()
    assert got.iterations == want.iterations


def test_rule_picks_by_pairs():
    assert isinstance(resolve_kernel(None), DenseKernel)
    assert isinstance(resolve_kernel(None, pairs=THRESHOLD - 1), DenseKernel)
    assert isinstance(resolve_kernel(None, pairs=THRESHOLD), ElkanKernel)
    # Serving ingests (1 000 points) and small_parts partitions stay dense.
    assert isinstance(resolve_kernel(None, pairs=1_000 * 40), DenseKernel)


@pytest.mark.parametrize(
    "offset, expected", [(-1, "dense"), (0, "elkan"), (1, "elkan")]
)
def test_default_equals_forced_dense_across_the_threshold(
    monkeypatch, offset, expected
):
    """n·k = constant − 1 / = / + 1, by moving the constant around one shape."""
    n, k = 2_000, 40
    monkeypatch.setattr(kernels, "_BOUNDS_MIN_PAIRS", n * k - offset)
    points, seeds = cell(n, k)
    default = lloyd(points, seeds, max_iter=12)
    assert default.kernel == expected
    assert default.counters.kernel == expected
    assert_same_run(default, lloyd(points, seeds, max_iter=12, kernel="dense"))


def test_named_dense_still_runs_dense_above_the_threshold(monkeypatch):
    points, seeds = cell(-(-THRESHOLD // 40) + 1, 40)
    default = lloyd(points, seeds, max_iter=8)
    assert default.kernel == "elkan"
    by_argument = lloyd(points, seeds, max_iter=8, kernel="dense")
    monkeypatch.setenv(KERNEL_ENV_VAR, "dense")
    by_env = lloyd(points, seeds, max_iter=8)
    for run in (by_argument, by_env):
        # The counters name the kernel that actually ran: no pruning.
        assert run.kernel == run.counters.kernel == "dense"
        assert run.counters.distance_evals_skipped == 0
        assert run.counters.bound_groups == 0
        assert_same_run(run, default)
    assert default.counters.bound_groups > 0


def _digest(models) -> str:
    h = hashlib.sha256()
    for key in sorted(models):
        model = models[key]
        h.update(key.encode())
        h.update(model.centroids.tobytes())
        h.update(model.weights.tobytes())
        h.update(float(model.mse).hex().encode())
    return h.hexdigest()


def test_default_plan_above_the_threshold_resumes_to_the_dense_digest(tmp_path):
    k = 40
    part = -(-THRESHOLD // k) + 100  # one partition's passes reach the rule
    cells = [
        GridCell(GridCellId(10, 20), generate_cell_points(2 * part, seed=1)),
        GridCell(GridCellId(11, 20), generate_cell_points(2 * part, seed=2)),
    ]
    buckets = write_bucket_dir(tmp_path / "buckets", cells)[0].parent

    def query(kernel=None):
        q = (
            Query.scan_buckets(str(buckets))
            .partition(2)
            .cluster(k=k, restarts=1, max_iter=6)
            .merge()
            .with_seed(3)
        )
        return q.with_kernel(kernel) if kernel else q

    run_dir = tmp_path / "run"
    first = query().checkpoint(run_dir, resume=True, fsync=False).execute()
    assert first.execution.metrics.kernel_counters["partial"]["kernel"] == "elkan"
    journal = run_dir / JOURNAL_FILENAME
    journaled = read_journal(journal).partitions
    assert {
        message.kernel_counters["kernel"]
        for by_partition in journaled.values()
        for message in by_partition.values()
    } == {"elkan"}

    size = journal.stat().st_size
    with journal.open("r+b") as handle:
        handle.truncate(size - 3)
    assert read_journal(journal).torn
    resumed = query().checkpoint(run_dir, resume=True, fsync=False).execute()
    assert resumed.execution.metrics.checkpoint.resumed
    assert read_journal(journal).complete

    dense = query("dense").execute()
    assert dense.execution.metrics.kernel_counters["partial"]["kernel"] == "dense"
    assert _digest(first.models) == _digest(dense.models)
    assert _digest(resumed.models) == _digest(dense.models)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_lloyd_peak_memory_is_about_the_points():
    """n = 100 000, k = 40: the default is elkan, inside dense's 2x bound.

    Before its per-point state was trimmed, elkan traced 4.7x here (a
    sorted copy of the points, copies of the distance vector and a
    full-width gather).
    """
    points, seeds = cell(100_000, 40)
    assert isinstance(resolve_kernel(None, pairs=100_000 * 40), ElkanKernel)
    peak = _traced_peak(lambda: lloyd(points, seeds, max_iter=5))
    assert peak <= 2 * points.nbytes, peak / points.nbytes


def test_kmeans_parallel_peak_memory_is_about_the_points():
    """kmeans|| on one 25 000-point partition: it traced 446x before."""
    points = generate_cell_points(25_000, seed=5, dim=6)
    rng = np.random.default_rng(0)
    peak = _traced_peak(lambda: kmeans_parallel_seeds(points, 40, rng))
    assert peak <= 4 * points.nbytes, peak / points.nbytes
