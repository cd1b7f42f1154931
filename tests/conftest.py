"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


def child_pids() -> list[int]:
    """Pids of this process's live children (empty where /proc is absent)."""
    pids: list[int] = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue  # the task exited between glob and read
    return pids


def make_blobs(
    n_per_blob: int,
    centers: np.ndarray,
    scale: float = 0.2,
    seed: int = 0,
) -> np.ndarray:
    """Well-separated isotropic Gaussian blobs (shuffled)."""
    generator = np.random.default_rng(seed)
    blocks = [
        generator.normal(loc=center, scale=scale, size=(n_per_blob, len(center)))
        for center in np.atleast_2d(centers)
    ]
    points = np.vstack(blocks)
    return points[generator.permutation(points.shape[0])]


@pytest.fixture
def blobs_2d() -> np.ndarray:
    """400 points in 4 well-separated 2-D blobs."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    return make_blobs(100, centers, scale=0.3, seed=7)


@pytest.fixture
def blobs_6d() -> np.ndarray:
    """600 points in 5 well-separated 6-D blobs (MISR dimensionality)."""
    generator = np.random.default_rng(3)
    centers = generator.normal(scale=12.0, size=(5, 6))
    return make_blobs(120, centers, scale=0.5, seed=11)


@pytest.fixture
def blob_centers_2d() -> np.ndarray:
    """The true centers of :func:`blobs_2d`."""
    return np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
