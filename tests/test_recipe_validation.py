"""A bad clustering recipe is refused up front, at every entry point.

``restarts``, ``max_iter`` and ``seeding`` are read only where the
partial k-means runs — inside a worker.  Unchecked, a sharded run turns
the worker's error into an empty model flagged incomplete, a plan run
into an opaque ``ExecutionError``, and a registry into a failure at its
first ingest.  Each entry point must instead raise a ``ValueError``
naming the field before any worker starts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.registry import ModelRegistry
from repro.stream.executor import Executor
from repro.stream.query import Query
from repro.stream.shard import ShardCoordinator, run_sharded

BAD_RECIPES = {
    "restarts": ({"restarts": 0}, "restarts must be >= 1"),
    "max_iter": ({"max_iter": 0}, "max_iter must be >= 1"),
    "seeding": ({"seeding": "bogus"}, "unknown seeding strategy 'bogus'"),
}


def _cells():
    rng = np.random.default_rng(0)
    return {"lat0lon0": rng.normal(size=(2_000, 6))}


def _run_sharded(tmp_path, recipe):
    run_sharded(_cells(), 3, n_chunks=2, seed=0, **recipe)


def _query_threads(tmp_path, recipe):
    (
        Query.scan_cells(_cells())
        .partition(2)
        .cluster(3, **recipe)
        .with_backend("threads")
        .with_seed(0)
        .execute()
    )


def _query_shards(tmp_path, recipe):
    (
        Query.scan_cells(_cells())
        .partition(2)
        .cluster(3, **recipe)
        .with_shards(2)
        .with_seed(0)
        .execute()
    )


def _registry(tmp_path, recipe):
    ModelRegistry(tmp_path / "run", k=3, fsync=False, **recipe)


ENTRY_POINTS = {
    "run_sharded": _run_sharded,
    "query_threads": _query_threads,
    "query_shards": _query_shards,
    "registry": _registry,
}

CASES = [
    pytest.param(entry, field, id=f"{entry}-{field}")
    for entry in ENTRY_POINTS
    for field in BAD_RECIPES
    # The registry always seeds at random; it has no seeding field.
    if not (entry == "registry" and field == "seeding")
]


@pytest.mark.parametrize("entry, field", CASES)
def test_bad_recipe_fails_before_any_worker_starts(
    tmp_path, monkeypatch, entry, field
):
    started = []
    monkeypatch.setattr(
        ShardCoordinator, "_spawn_worker",
        lambda self, *args, **kwargs: started.append("shard worker"),
    )
    monkeypatch.setattr(
        Executor, "run", lambda self, plan: started.append("executor")
    )
    recipe, message = BAD_RECIPES[field]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](tmp_path, recipe)
    assert not started
    # The registry refuses before it touches its run directory.
    assert not (tmp_path / "run").exists()


def _merge_cap_threads(tmp_path):
    (
        Query.scan_cells(_cells())
        .partition(2)
        .cluster(3)
        .merge(max_iter=0)
        .with_backend("threads")
        .with_seed(0)
        .execute()
    )


def _merge_cap_shards(tmp_path):
    (
        Query.scan_cells(_cells())
        .partition(2)
        .cluster(3)
        .merge(max_iter=0)
        .with_shards(2)
        .with_seed(0)
        .execute()
    )


def _merge_cap_coreset_tree(tmp_path):
    from repro.core.recipe import Recipe
    from repro.stream.coreset import CoresetTree

    CoresetTree(k=3, recipe=Recipe(merge_max_iter=0))


MERGE_CAP_ENTRY_POINTS = {
    "query_threads": _merge_cap_threads,
    "query_shards": _merge_cap_shards,
    "coreset_tree": _merge_cap_coreset_tree,
}


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(entry, id=f"{entry}-merge_max_iter")
        for entry in MERGE_CAP_ENTRY_POINTS
    ],
)
def test_bad_merge_cap_fails_before_any_worker_starts(
    tmp_path, monkeypatch, entry
):
    """Every merge path reads one cap, so every one refuses a bad one."""
    started = []
    monkeypatch.setattr(
        ShardCoordinator, "_spawn_worker",
        lambda self, *args, **kwargs: started.append("shard worker"),
    )
    monkeypatch.setattr(
        Executor, "run", lambda self, plan: started.append("executor")
    )
    with pytest.raises(ValueError, match="merge_max_iter must be >= 1, got 0"):
        MERGE_CAP_ENTRY_POINTS[entry](tmp_path)
    assert not started
