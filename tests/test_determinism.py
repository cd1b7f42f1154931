"""Determinism regression: identical seeds must give byte-identical models.

Chunk order and every RNG draw are fixed by the seed: each partition's
RNG is a pure function of (seed, cell, partition), never of processing
order, so runs must agree to the last bit across runs, clone counts and
execution backends (threads vs worker processes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream.kmeans_ops import run_partial_merge_stream
from tests.conftest import make_blobs


@pytest.fixture
def cells():
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [8.0, 0.0]])
    return {
        "north": make_blobs(90, centers, scale=0.4, seed=21),
        "south": make_blobs(75, centers, scale=0.4, seed=22),
    }


def run_simple(cells, seed):
    models, _ = run_partial_merge_stream(
        cells, k=3, restarts=2, n_chunks=3, seed=seed,
        partial_clones=1, max_iter=40,
    )
    return models


def run_processes(cells, seed, clones=2):
    models, _ = run_partial_merge_stream(
        cells, k=3, restarts=2, n_chunks=3, seed=seed,
        partial_clones=clones, max_iter=40, backend="processes",
    )
    return models


def assert_models_identical(a, b):
    assert set(a) == set(b)
    for cell in a:
        assert a[cell].centroids.tobytes() == b[cell].centroids.tobytes()
        assert a[cell].weights.tobytes() == b[cell].weights.tobytes()
        assert a[cell].mse == b[cell].mse


class TestDeterminism:
    def test_same_seed_byte_identical_across_executor_runs(self, cells):
        assert_models_identical(run_simple(cells, 7), run_simple(cells, 7))

    def test_thread_and_process_backends_bit_identical(self, cells):
        """The tentpole guarantee: offloading partial clones to worker
        processes must not change a single output bit."""
        assert_models_identical(run_simple(cells, 7), run_processes(cells, 7))

    def test_process_backend_runs_agree_with_each_other(self, cells):
        assert_models_identical(
            run_processes(cells, 5), run_processes(cells, 5, clones=3)
        )

    def test_different_seed_changes_model(self, cells):
        a, b = run_simple(cells, 1), run_simple(cells, 2)
        assert any(
            a[cell].centroids.tobytes() != b[cell].centroids.tobytes()
            for cell in a
        )
