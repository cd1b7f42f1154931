"""The partial/merge recipe: one value object from entry point to merge.

A :class:`Recipe` is built once, by the entry point, and read by the
partial and merge code of every backend.  These tests pin what that
promises: the recipe is a plain value (pickles, hashes, compares by
value, survives the process and shard specs), each entry point's default
recipe is the one it had before the recipe existed, and the merge cap
reaches every merge path.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.incremental import IncrementalClusterer
from repro.core.pipeline import PartialMergeKMeans
from repro.core.recipe import DEFAULT_RECIPE, SERVE_RECIPE, SHARD_RECIPE, Recipe
from repro.serve.registry import ModelRegistry
from repro.stream.kmeans_ops import PartialKMeansOperator
from repro.stream.query import Query
from repro.stream.shard import CellTask, ShardConfig, ShardCoordinator, run_sharded


def _cells(n_cells=1, n_points=2_000, dim=6):
    rng = np.random.default_rng(1)
    return {
        f"lat{i}lon0": rng.normal(size=(n_points, dim)) + i for i in range(n_cells)
    }


class TestValue:
    def test_pickles_hashes_and_compares_by_value(self):
        recipe = Recipe(restarts=2, seeding="kmeans++", max_iter=7, kernel="elkan")
        clone = pickle.loads(pickle.dumps(recipe))
        assert clone == recipe
        assert hash(clone) == hash(recipe)
        assert clone == Recipe(
            restarts=2, seeding="kmeans++", max_iter=7, kernel="elkan"
        )
        assert clone != Recipe(restarts=2, seeding="kmeans++", max_iter=7)
        assert len({recipe, clone, DEFAULT_RECIPE}) == 2

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_RECIPE.restarts = 3  # type: ignore[misc]

    def test_survives_spec_and_cell_task_pickling(self, tmp_path):
        recipe = Recipe(restarts=2, seeding="kmeans++", max_iter=9, merge_max_iter=4)
        spec = PartialKMeansOperator.from_recipe(
            3, recipe, np.random.SeedSequence(5)
        ).to_spec()
        assert pickle.loads(pickle.dumps(spec)).recipe == recipe
        assert spec.build().recipe == recipe
        task = CellTask(
            cell_id="lat0lon0",
            epoch=0,
            points=np.zeros((4, 2)),
            n_chunks=2,
            merge_k=3,
            partial=spec,
            journal_path=str(tmp_path / "x.rjl"),
            prior_journals=(),
            fsync=False,
        )
        shipped = pickle.loads(pickle.dumps(task))
        assert shipped.partial.recipe == recipe
        assert shipped.partial.build().clone().recipe == recipe


class TestEntryPointDefaults:
    """Each entry point's default recipe, pinned to its pre-recipe values.

    A later change of any default must show up as an edit here.
    """

    def test_named_defaults(self):
        assert DEFAULT_RECIPE == Recipe(
            restarts=10,
            seeding="random",
            max_iter=300,
            merge_max_iter=300,
            kernel=None,
        )
        assert SERVE_RECIPE == Recipe(restarts=3)
        assert SHARD_RECIPE == Recipe(restarts=1, seeding="kmeans||")

    def test_query_and_library_entry_points(self):
        query = Query.scan_cells(_cells()).partition(2).cluster(3)
        assert query._state.recipe == DEFAULT_RECIPE
        assert PartialMergeKMeans(k=3).recipe == DEFAULT_RECIPE
        assert PartialKMeansOperator(k=3).recipe == DEFAULT_RECIPE

    def test_serving_entry_points(self, tmp_path):
        registry = ModelRegistry(tmp_path / "run", k=3, fsync=False)
        assert registry.recipe == SERVE_RECIPE
        assert IncrementalClusterer(k=3).recipe == SERVE_RECIPE

    def test_run_sharded(self, monkeypatch):
        built = []

        def run(coordinator):
            built.append(coordinator._partial.recipe)
            return {}

        monkeypatch.setattr(ShardCoordinator, "run", run)
        run_sharded(_cells(), 3, n_chunks=2, seed=0)
        assert built == [SHARD_RECIPE]


class TestMergeCap:
    """``.merge(max_iter=M)`` caps the merge on every backend."""

    def _query(self, backend, cap):
        query = (
            Query.scan_cells(_cells(n_cells=12, n_points=300, dim=4))
            .partition(6)
            .cluster(8, restarts=2, max_iter=25)
        )
        if cap is not None:
            query = query.merge(max_iter=cap)
        if backend == "shards":
            query = query.with_shards(2, ShardConfig(heartbeat_interval=0.05))
        else:
            query = query.with_backend(backend)
        return query.with_seed(1)

    @pytest.mark.parametrize("backend", ["threads", "shards"])
    def test_merge_cap_reaches_every_backend(self, backend):
        models = self._query(backend, cap=1).execute().models
        assert len(models) == 12
        assert max(m.extra["merge_iterations"] for m in models.values()) <= 1

    def test_without_merge_stage_the_cluster_cap_applies(self):
        state = self._query("threads", cap=None)._state
        assert state.recipe.merge_max_iter == 25
        state = self._query("threads", cap=40)._state
        assert state.recipe.merge_max_iter == 40
        # merge() before cluster() keeps its own cap.
        early = Query.scan_cells(_cells()).merge(max_iter=40).cluster(3, max_iter=25)
        assert early._state.recipe.merge_max_iter == 40
