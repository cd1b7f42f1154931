"""Tests for the warm model registry (``repro.serve.registry``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import ClusterModel
from repro.serve.registry import ModelRegistry, ServeError, UnknownCellError
from repro.stream.checkpoint import JOURNAL_FILENAME, JournalWriter, read_journal
from repro.stream.query import Query


@pytest.fixture
def chunks(rng):
    return [rng.normal(size=(150, 3)) + shift for shift in (0.0, 4.0, -3.0)]


@pytest.fixture
def pipeline_run(tmp_path):
    """A journaled pipeline run over three bucket cells."""
    from repro.data.generator import generate_cell_points
    from repro.data.gridcell import GridCell, GridCellId
    from repro.data.gridio import write_bucket_dir

    cells = [
        GridCell(GridCellId(10, 20), generate_cell_points(400, seed=1)),
        GridCell(GridCellId(11, 20), generate_cell_points(300, seed=2)),
    ]
    write_bucket_dir(tmp_path / "buckets", cells)
    run_dir = tmp_path / "run"
    result = (
        Query.scan_buckets(str(tmp_path / "buckets"))
        .partition(3)
        .cluster(k=4, restarts=2)
        .merge()
        .with_seed(7)
        .checkpoint(run_dir, fsync=False)
        .execute()
    )
    return run_dir, result


class TestWarmStart:
    def test_adopts_pipeline_models_bit_identical(self, pipeline_run):
        run_dir, result = pipeline_run
        with ModelRegistry(run_dir, fsync=False) as registry:
            assert set(registry.cells()) == set(result.models)
            assert registry.cells_adopted == len(result.models)
            for cell_id, expected in result.models.items():
                info = registry.summary(cell_id)
                np.testing.assert_array_equal(
                    info.model.centroids, expected.centroids
                )
                np.testing.assert_array_equal(
                    info.model.weights, expected.weights
                )

    def test_empty_run_dir_serves_nothing(self, tmp_path):
        with ModelRegistry(tmp_path / "fresh", fsync=False) as registry:
            assert registry.cells() == []
            with pytest.raises(UnknownCellError):
                registry.summary("nowhere")

    def test_gap_in_partition_indices_is_skipped(self, tmp_path, rng):
        run_dir = tmp_path / "run"
        with ModelRegistry(run_dir, k=3, seed=0, fsync=False) as registry:
            registry.ingest("c", rng.normal(size=(100, 2)))
            registry.ingest("c", rng.normal(size=(100, 2)))
        # Forge a journal whose partition 1 is missing: replay must stop
        # at the contiguous prefix instead of folding out of order.
        state = read_journal(run_dir / JOURNAL_FILENAME)
        forged = tmp_path / "forged"
        forged.mkdir()
        writer = JournalWriter(forged / JOURNAL_FILENAME, fsync=False)
        writer.append_partition(state.partitions["c"][0])
        message = state.partitions["c"][1]
        object.__setattr__(message, "partition", 3)
        writer.append_partition(message)
        writer.close()
        with ModelRegistry(forged, k=3, seed=0, fsync=False) as registry:
            assert registry.gaps_skipped == 1
            assert registry.summary("c").partitions == 1


class TestIngest:
    def test_mass_accumulates(self, tmp_path, chunks):
        with ModelRegistry(tmp_path / "run", k=4, fsync=False) as registry:
            for chunk in chunks:
                receipt = registry.ingest("cell", chunk)
            assert receipt.model_version == len(chunks)
            info = registry.summary("cell")
            total = sum(chunk.shape[0] for chunk in chunks)
            assert info.model.weights.sum() == pytest.approx(total)

    def test_restart_is_bit_identical(self, tmp_path, chunks):
        run_dir = tmp_path / "run"
        with ModelRegistry(run_dir, k=4, seed=9, fsync=False) as registry:
            for chunk in chunks:
                registry.ingest("cell", chunk)
            live = registry.summary("cell").model
            live_prefix = registry.prefix("cell").model
        with ModelRegistry(run_dir, k=4, seed=9, fsync=False) as warmed:
            warm = warmed.summary("cell").model
            np.testing.assert_array_equal(live.centroids, warm.centroids)
            np.testing.assert_array_equal(live.weights, warm.weights)
            assert live.mse == warm.mse
            warm_prefix = warmed.prefix("cell").model
            np.testing.assert_array_equal(
                live_prefix.centroids, warm_prefix.centroids
            )
            # Tree merges journaled by the first process were adopted.
            assert warmed.nodes_preloaded > 0

    def test_reingest_reproduces_exact_summary(self, tmp_path, chunks):
        """At-least-once convergence: the same chunk at the same index
        under the same seed produces the same journal record bits."""
        runs = []
        for attempt in range(2):
            run_dir = tmp_path / f"run{attempt}"
            with ModelRegistry(run_dir, k=4, seed=5, fsync=False) as registry:
                for chunk in chunks:
                    registry.ingest("cell", chunk)
            runs.append(read_journal(run_dir / JOURNAL_FILENAME))
        for index in runs[0].partitions["cell"]:
            first = runs[0].partitions["cell"][index].summary
            second = runs[1].partitions["cell"][index].summary
            np.testing.assert_array_equal(first.centroids, second.centroids)
            np.testing.assert_array_equal(first.weights, second.weights)

    def test_bootstraps_empty_watermark_cell(self, tmp_path, rng):
        """A journaled zero-point-cell watermark (k=0) must accept its
        first real chunk instead of crashing the fold (PR 3 regression)."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        writer = JournalWriter(run_dir / JOURNAL_FILENAME, fsync=False)
        writer.append_cell("deadzone", ClusterModel.empty(2))
        writer.close()
        with ModelRegistry(run_dir, k=3, fsync=False) as registry:
            assert registry.cells() == ["deadzone"]
            with pytest.raises(ServeError, match="no populated model"):
                registry.assign("deadzone", rng.normal(size=(5, 2)))
            receipt = registry.ingest("deadzone", rng.normal(size=(80, 2)))
            assert receipt.n_points == 80
            info = registry.summary("deadzone")
            assert info.model.k == 3
            assert info.model.weights.sum() == pytest.approx(80)


class TestQueries:
    def test_assign_matches_model(self, tmp_path, chunks, rng):
        with ModelRegistry(tmp_path / "run", k=4, fsync=False) as registry:
            for chunk in chunks:
                registry.ingest("cell", chunk)
            points = rng.normal(size=(20, 3))
            result = registry.assign("cell", points)
            model = registry.summary("cell").model
            expected = np.argmin(
                ((points[:, None, :] - model.centroids[None]) ** 2).sum(-1),
                axis=1,
            )
            np.testing.assert_array_equal(result.assignments, expected)
            np.testing.assert_array_equal(
                result.centroids, model.centroids[expected]
            )
            assert result.model_version == len(chunks)

    def test_kernel_name_alone_selects_the_tier(self, tmp_path, chunks, rng):
        """elkan keeps the bits, in folds and in assigns."""
        queries = rng.normal(size=(40, 3))

        def serve(kernel):
            with ModelRegistry(
                tmp_path / kernel, k=4, seed=9, kernel=kernel, fsync=False
            ) as registry:
                for chunk in chunks:
                    registry.ingest("cell", chunk)
                model = registry.summary("cell").model
                return model, registry.assign("cell", queries)

        (dense, dense_hits), (elkan, elkan_hits) = (
            serve(kernel) for kernel in ("dense", "elkan")
        )
        np.testing.assert_array_equal(dense.centroids, elkan.centroids)
        np.testing.assert_array_equal(
            dense_hits.assignments, elkan_hits.assignments
        )
        np.testing.assert_array_equal(
            dense_hits.sq_dists, elkan_hits.sq_dists
        )

    @pytest.mark.parametrize("kernel", ["bogus", "blas"])
    def test_bad_kernel_name_is_refused_at_construction(self, tmp_path, kernel):
        with pytest.raises(
            ValueError,
            match=f"unknown k-means kernel '{kernel}'; "
            "expected one of dense, elkan",
        ):
            ModelRegistry(tmp_path / "run", k=4, kernel=kernel, fsync=False)
        # Refused before the registry touched its run directory.
        assert not (tmp_path / "run").exists()

    def test_window_covers_trailing_chunks(self, tmp_path, chunks):
        with ModelRegistry(tmp_path / "run", k=4, fsync=False) as registry:
            for chunk in chunks:
                registry.ingest("cell", chunk)
            answer = registry.window("cell", last_n=2)
            assert (answer.start, answer.upto) == (1, 3)
            trailing = sum(chunk.shape[0] for chunk in chunks[1:])
            assert answer.model.total_weight == pytest.approx(trailing)

    def test_unknown_cell_raises(self, tmp_path):
        with ModelRegistry(tmp_path / "run", fsync=False) as registry:
            with pytest.raises(UnknownCellError, match="neither"):
                registry.assign("ghost", np.zeros((1, 2)))


class TestFreshnessAndEviction:
    def test_ttl_marks_responses_stale(self, tmp_path, chunks):
        with ModelRegistry(
            tmp_path / "run", k=4, ttl_seconds=0.01, fsync=False
        ) as registry:
            registry.ingest("cell", chunks[0])
            import time

            time.sleep(0.05)
            info = registry.summary("cell")
            assert info.stale
            assert info.age_seconds > 0.01
            assert registry.stale_served == 1
            # A fresh fold resets the clock.
            registry.ingest("cell", chunks[1])
            assert not registry.summary("cell").stale

    def test_evicted_cell_rewarms_lazily(self, tmp_path, chunks):
        with ModelRegistry(tmp_path / "run", k=4, seed=2, fsync=False) as registry:
            for chunk in chunks:
                registry.ingest("cell", chunk)
            before = registry.summary("cell").model
            assert registry.evict_idle(0.0) == ["cell"]
            assert registry.cells() == []
            after = registry.summary("cell").model
            assert registry.rewarms == 1
            np.testing.assert_array_equal(before.centroids, after.centroids)
            np.testing.assert_array_equal(before.weights, after.weights)
            # Folding continues seamlessly after the rewarm.
            receipt = registry.ingest("cell", chunks[0])
            assert receipt.partition == len(chunks)

    def test_stats_are_json_safe(self, tmp_path, chunks):
        import json

        with ModelRegistry(tmp_path / "run", k=4, fsync=False) as registry:
            registry.ingest("cell", chunks[0])
            payload = json.dumps(registry.stats())
            assert "resident_cells" in payload


class TestValidation:
    def test_bad_k(self, tmp_path):
        with pytest.raises(ValueError, match="k must"):
            ModelRegistry(tmp_path / "run", k=0)

    def test_bad_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ModelRegistry(tmp_path / "run", ttl_seconds=0.0)
